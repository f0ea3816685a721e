(* The metrics registry: instrument semantics, deterministic sampling,
   Prometheus/CSV export shape, and the two acceptance properties of
   the observability layer — registry-derived RPC counts equal the
   legacy Stats.Counter path exactly, and two runs of the same seeded
   Andrew workload export byte-identical metrics. *)

let contains s sub =
  let n = String.length sub in
  let rec loop i =
    if i + n > String.length s then false
    else String.sub s i n = sub || loop (i + 1)
  in
  loop 0

(* ---- instruments ---- *)

let test_disabled_is_silent () =
  Alcotest.(check bool) "off" false (Obs.Metrics.on ());
  (* all emitters are no-ops without a registry *)
  Obs.Metrics.incr "c";
  Obs.Metrics.observe "h" 1.0;
  Obs.Metrics.register_poll "p" (fun () -> 1.0);
  Alcotest.(check bool) "still off" false (Obs.Metrics.on ())

let test_counters_and_labels () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () ->
      Obs.Metrics.incr "calls" ~labels:[ ("b", "2"); ("a", "1") ];
      Obs.Metrics.incr "calls" ~labels:[ ("a", "1"); ("b", "2") ] ~n:4;
      Obs.Metrics.incr "calls");
  (* label order at the call site never matters: both increments hit
     one counter *)
  Alcotest.(check int) "labelled" 5
    (Obs.Metrics.counter_value m "calls" ~labels:[ ("b", "2"); ("a", "1") ]);
  Alcotest.(check int) "unlabelled distinct" 1
    (Obs.Metrics.counter_value m "calls");
  Alcotest.(check int) "absent" 0 (Obs.Metrics.counter_value m "nope");
  Alcotest.(check int) "two label sets" 2
    (List.length (Obs.Metrics.counters_with m "calls"))

let test_gauges_and_polls () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () ->
      let level = ref 7.0 in
      Obs.Metrics.register_poll "polled" (fun () -> !level);
      (* last registration wins *)
      Obs.Metrics.register_poll "polled" (fun () -> !level +. 1.0);
      Obs.Metrics.register_poll "depth" ~labels:[ ("q", "a") ] (fun () -> 3.0);
      Obs.Metrics.register_poll "depth" ~labels:[ ("q", "b") ] (fun () -> -1.5);
      level := 10.0);
  Alcotest.(check (float 1e-9))
    "poll evaluated late" 11.0
    (Obs.Metrics.gauge_value m "polled");
  Alcotest.(check (float 1e-9))
    "labelled poll" 3.0
    (Obs.Metrics.gauge_value m "depth" ~labels:[ ("q", "a") ]);
  Alcotest.(check (float 1e-9))
    "sibling label set" (-1.5)
    (Obs.Metrics.gauge_value m "depth" ~labels:[ ("q", "b") ]);
  Alcotest.(check (float 1e-9))
    "absent" 0.0
    (Obs.Metrics.gauge_value m "depth")

let test_kind_clash_rejected () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () ->
      Obs.Metrics.incr "x";
      Alcotest.(check bool) "counter then polled gauge" true
        (match Obs.Metrics.register_poll "x" (fun () -> 1.0) with
        | () -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check bool) "counter then histogram" true
        (match Obs.Metrics.observe "x" 1.0 with
        | () -> false
        | exception Invalid_argument _ -> true))

(* ---- sampling ---- *)

let test_sampling_deltas_and_levels () =
  let m = Obs.Metrics.create () in
  let level = ref 2.0 in
  let temp = ref 0.0 in
  let busy = ref 0.0 in
  Obs.Metrics.with_metrics m (fun () ->
      Obs.Metrics.register_poll "queue" (fun () -> !level);
      Obs.Metrics.register_poll "temp" (fun () -> !temp);
      Obs.Metrics.register_poll "busy" ~cumulative:true (fun () -> !busy);
      Obs.Metrics.start_sampling m ~origin:0.0 ~interval:10.0;
      Alcotest.(check bool) "active" true (Obs.Metrics.sampling_active m);
      Obs.Metrics.incr "ops" ~n:3;
      temp := 40.0;
      busy := 4.0;
      Obs.Metrics.sample m ~now:10.0;
      Obs.Metrics.incr "ops" ~n:2;
      temp := 60.0;
      level := 5.0;
      busy := 9.0;
      Obs.Metrics.sample m ~now:20.0);
  let bin name i =
    match Obs.Metrics.series m name with
    | [ (_, ts) ] -> Stats.Timeseries.value ts i
    | other ->
        Alcotest.failf "expected one %s series, got %d" name
          (List.length other)
  in
  (* a sample taken at the end of bin k lands in bin k *)
  Alcotest.(check (float 1e-9)) "counter delta bin0" 3.0 (bin "ops" 0);
  Alcotest.(check (float 1e-9)) "counter delta bin1" 2.0 (bin "ops" 1);
  Alcotest.(check (float 1e-9)) "cumulative poll delta bin0" 4.0 (bin "busy" 0);
  Alcotest.(check (float 1e-9)) "cumulative poll delta bin1" 5.0 (bin "busy" 1);
  Alcotest.(check (float 1e-9)) "level poll set late bin0" 40.0 (bin "temp" 0);
  Alcotest.(check (float 1e-9)) "level poll set late bin1" 60.0 (bin "temp" 1);
  Alcotest.(check (float 1e-9)) "level poll bin0" 2.0 (bin "queue" 0);
  Alcotest.(check (float 1e-9)) "level poll bin1" 5.0 (bin "queue" 1)

(* ---- export shape ---- *)

let test_prometheus_shape () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () ->
      Obs.Metrics.incr "zeta_total" ~labels:[ ("host", "c1") ];
      Obs.Metrics.incr "alpha_total" ~n:2;
      Obs.Metrics.register_poll "queue_depth" (fun () -> 3.0);
      List.iter (Obs.Metrics.observe "latency_seconds") [ 0.25; 0.75 ]);
  let p = Obs.Metrics.to_prometheus m in
  Alcotest.(check bool) "counter type line" true
    (contains p "# TYPE alpha_total counter");
  Alcotest.(check bool) "gauge type line" true
    (contains p "# TYPE queue_depth gauge");
  Alcotest.(check bool) "polled gauge value" true
    (contains p "queue_depth 3\n");
  Alcotest.(check bool) "summary type line" true
    (contains p "# TYPE latency_seconds summary");
  Alcotest.(check bool) "quoted labels" true
    (contains p "zeta_total{host=\"c1\"} 1");
  Alcotest.(check bool) "summary count" true
    (contains p "latency_seconds_count 2");
  Alcotest.(check bool) "quantile" true (contains p "quantile=\"0.5\"");
  (* deterministic name order: alpha before queue before zeta *)
  let idx sub =
    let n = String.length sub in
    let rec at i =
      if i + n > String.length p then Alcotest.failf "missing %S" sub
      else if String.sub p i n = sub then i
      else at (i + 1)
    in
    at 0
  in
  Alcotest.(check bool) "sorted output" true
    (idx "alpha_total" < idx "queue_depth" && idx "queue_depth" < idx "zeta_total")

let test_csv_shape () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () ->
      Obs.Metrics.start_sampling m ~origin:0.0 ~interval:5.0;
      Obs.Metrics.incr "ops_total" ~labels:[ ("host", "c1") ] ~n:3;
      Obs.Metrics.sample m ~now:5.0);
  let csv = Obs.Metrics.to_csv m in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  Alcotest.(check string) "header" "series,time,value" (List.hd lines);
  Alcotest.(check bool) "quoted series with labels" true
    (contains csv "\"ops_total{host=c1}\"");
  let empty = Obs.Metrics.create () in
  Alcotest.(check string) "no sampling: header only" "series,time,value\n"
    (Obs.Metrics.to_csv empty)

(* ---- RPC latency outcomes ---- *)

(* p.x succeeds once and times out once; p.y only times out: nothing
   serves program p on the silent host *)
let test_latency_outcomes () =
  let m = Obs.Metrics.create () in
  Experiments.Driver.run ~metrics:m (fun engine ->
      let net = Netsim.Net.create engine () in
      let rpc = Netsim.Rpc.create net () in
      let client = Netsim.Net.Host.create net "client" in
      let server = Netsim.Net.Host.create net "server" in
      let silent = Netsim.Net.Host.create net "silent" in
      ignore
        (Netsim.Rpc.serve rpc server ~prog:"p" ~threads:1
           ~unknown:(fun ~caller:_ ~ctx:_ _ ->
             { Netsim.Rpc.data = Bytes.empty; bulk = 0 })
           []);
      let call dst proc =
        match
          Netsim.Rpc.call rpc ~src:client ~dst ~prog:"p" ~proc Bytes.empty
        with
        | _ -> ()
        | exception Netsim.Rpc.Timeout _ -> ()
      in
      call server "x";
      call silent "x";
      call silent "y");
  let samples ?proc outcome =
    List.fold_left
      (fun acc (labels, h) ->
        let has k v = String.equal (List.assoc k labels) v in
        if
          has "outcome" outcome
          && Option.fold ~none:true ~some:(has "proc") proc
        then acc + Stats.Histogram.count h
        else acc)
      0
      (Obs.Metrics.histograms_with m "rpc_latency_seconds")
  in
  Alcotest.(check int) "errors x" 1 (samples ~proc:"x" "timeout");
  Alcotest.(check int) "errors y" 1 (samples ~proc:"y" "timeout");
  Alcotest.(check int) "total errors" 2 (samples "timeout");
  Alcotest.(check int) "all outcomes sampled" 3
    (samples "ok" + samples "timeout");
  (* timed-out calls never pollute the success percentiles *)
  Alcotest.(check int) "success count" 1 (samples ~proc:"x" "ok");
  let table = Netsim.Rpc.latency_table m in
  Alcotest.(check bool) "outcome column" true (contains table "outcome");
  (* successes and timeouts each get their own outcome row, successes
     first, and a procedure with only timeouts still gets a row *)
  let rows =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | proc :: outcome :: _ when String.starts_with ~prefix:"p." proc ->
            Some (proc, outcome)
        | _ -> None)
      (String.split_on_char '\n' table)
  in
  Alcotest.(check (list (pair string string)))
    "rows" [ ("p.x", "ok"); ("p.x", "timeout"); ("p.y", "timeout") ] rows

(* ---- the acceptance properties, on a real seeded Andrew run ---- *)

let small_andrew_config =
  {
    Workload.Andrew.default_config with
    tree =
      {
        Workload.File_tree.default with
        dirs = 2;
        files_per_dir = 3;
        c_files_per_dir = 1;
        headers = 3;
      };
  }

(* one scaled-down SNFS Andrew run with the registry installed; returns
   the legacy per-procedure counts and the labels identifying the
   server service *)
let run_small_andrew m =
  Experiments.Driver.run ~metrics:m (fun engine ->
      let tb =
        Experiments.Testbed.create engine
          ~protocol:(Experiments.Testbed.Snfs_proto Snfs.Snfs_client.default_config)
          ~tmp:Experiments.Testbed.Tmp_remote ()
      in
      let ctx = Experiments.Testbed.ctx tb in
      let tree = Workload.Andrew.setup ctx small_andrew_config in
      ignore (Workload.Andrew.run ctx small_andrew_config tree);
      let service = Option.get (Experiments.Testbed.service tb) in
      ( Stats.Counter.to_list (Netsim.Rpc.counters service),
        Netsim.Rpc.service_prog service,
        Netsim.Net.Host.name (Experiments.Testbed.server_host tb) ))

let test_registry_matches_legacy_counters () =
  let m = Obs.Metrics.create () in
  let legacy, prog, server = run_small_andrew m in
  Alcotest.(check bool) "legacy counted calls" true (legacy <> []);
  (* per procedure, the registry saw exactly what Stats.Counter saw *)
  List.iter
    (fun (proc, n) ->
      Alcotest.(check int) ("proc " ^ proc) n
        (Obs.Metrics.counter_value m "rpc_server_calls_total"
           ~labels:[ ("host", server); ("prog", prog); ("proc", proc) ]))
    legacy;
  (* and it saw nothing else for this service *)
  let registry_total =
    List.fold_left
      (fun acc (labels, v) ->
        if List.mem ("host", server) labels && List.mem ("prog", prog) labels
        then acc + v
        else acc)
      0
      (Obs.Metrics.counters_with m "rpc_server_calls_total")
  in
  let legacy_total = List.fold_left (fun a (_, n) -> a + n) 0 legacy in
  Alcotest.(check int) "totals equal" legacy_total registry_total

let exports_of_one_run () =
  let m = Obs.Metrics.create () in
  ignore (run_small_andrew m);
  (Obs.Metrics.to_prometheus m, Obs.Metrics.to_csv m)

let test_export_determinism () =
  let prom1, csv1 = exports_of_one_run () in
  let prom2, csv2 = exports_of_one_run () in
  Alcotest.(check bool) "prom non-trivial" true (String.length prom1 > 1000);
  Alcotest.(check bool) "csv non-trivial" true
    (List.length (String.split_on_char '\n' csv1) > 10);
  Alcotest.(check int) "prom same size" (String.length prom1)
    (String.length prom2);
  Alcotest.(check bool) "prom byte-identical" true (String.equal prom1 prom2);
  Alcotest.(check int) "csv same size" (String.length csv1)
    (String.length csv2);
  Alcotest.(check bool) "csv byte-identical" true (String.equal csv1 csv2)

let test_report_sections () =
  let m = Obs.Metrics.create () in
  ignore (run_small_andrew m);
  let r = Obs.Metrics.report m in
  List.iter
    (fun sec -> Alcotest.(check bool) sec true (contains r sec))
    [ "== counters =="; "== gauges =="; "== histograms ==" ];
  Alcotest.(check bool) "has rpc counts" true
    (contains r "rpc_server_calls_total")

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "disabled is silent" `Quick
            test_disabled_is_silent;
          Alcotest.test_case "counters and labels" `Quick
            test_counters_and_labels;
          Alcotest.test_case "gauges and polls" `Quick test_gauges_and_polls;
          Alcotest.test_case "kind clash rejected" `Quick
            test_kind_clash_rejected;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "deltas and levels" `Quick
            test_sampling_deltas_and_levels;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus shape" `Quick test_prometheus_shape;
          Alcotest.test_case "csv shape" `Quick test_csv_shape;
        ] );
      ( "latency outcomes",
        [ Alcotest.test_case "timeouts tracked" `Quick test_latency_outcomes ] );
      ( "andrew acceptance",
        [
          Alcotest.test_case "registry equals legacy counters" `Quick
            test_registry_matches_legacy_counters;
          Alcotest.test_case "byte-identical exports" `Quick
            test_export_determinism;
          Alcotest.test_case "flight report sections" `Quick
            test_report_sections;
        ] );
    ]
