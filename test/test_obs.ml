(* The observability layer: span well-formedness, Chrome trace-event
   JSON export (validated with a small self-contained JSON parser — no
   external JSON dependency), latency percentile arithmetic, and the
   determinism guarantee: two runs of the same seeded workload in one
   process produce byte-identical traces. *)

let run_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e ~name:"test-main" (fun () ->
      result := Some (f e);
      Sim.Engine.stop e);
  Sim.Engine.run e;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation main process did not complete"

(* ---- a small SNFS world that exercises rpc, net, cache and protocol
   probe sites ---- *)

type world = {
  net : Netsim.Net.t;
  rpc : Netsim.Rpc.t;
  server_host : Netsim.Net.Host.t;
  snfs_server : Snfs.Snfs_server.t;
}

let make_world e =
  let net = Netsim.Net.create e () in
  let rpc = Netsim.Rpc.create net () in
  let server_host = Netsim.Net.Host.create net "server" in
  let server_disk = Diskm.Disk.create e "server-disk" in
  let server_fs =
    Localfs.create e ~name:"srvfs" ~disk:server_disk ~cache_blocks:896
      ~meta_policy:`Sync ()
  in
  let snfs_server = Snfs.Snfs_server.serve rpc server_host ~fsid:2 server_fs in
  { net; rpc; server_host; snfs_server }

let snfs_client w name =
  let host = Netsim.Net.Host.create w.net name in
  let client =
    Snfs.Snfs_client.mount w.rpc ~client:host ~server:w.server_host
      ~root:(Snfs.Snfs_server.root_fh w.snfs_server)
      ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Snfs.Snfs_client.fs client);
  (host, client, mounts)

(* two clients write-share a file: opens, callbacks, cache traffic,
   and plenty of RPC spans *)
let scenario e =
  let w = make_world e in
  let _, _, m1 = snfs_client w "c1" in
  let _, _, m2 = snfs_client w "c2" in
  let fd = Vfs.Fileio.creat m1 "/f" in
  ignore (Vfs.Fileio.write fd ~len:16384);
  Vfs.Fileio.close fd;
  ignore (Vfs.Fileio.read_file m2 "/f");
  let wfd = Vfs.Fileio.openf m1 "/f" Vfs.Fs.Write_only in
  ignore (Vfs.Fileio.write wfd ~len:4096);
  Sim.Engine.sleep e 0.5;
  ignore (Vfs.Fileio.read_file m2 "/f");
  Vfs.Fileio.close wfd;
  Sim.Engine.sleep e 1.0

let traced_scenario () =
  let tr = Obs.Trace.create () in
  Obs.Trace.with_tracer tr (fun () -> run_sim scenario);
  tr

(* ---- JSON accessors that fail the test on a missing member ---- *)

let member = Obs.Json.member

let str_member k j =
  match Obs.Json.str_member k j with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "missing string member %S" k)

let num_member k j =
  match Obs.Json.num_member k j with
  | Some x -> x
  | None -> Alcotest.fail (Printf.sprintf "missing numeric member %S" k)

(* ---- tests ---- *)

let test_disabled_tracing_is_silent () =
  Alcotest.(check bool) "no tracer installed" false (Obs.Trace.on ());
  (* all probe entry points are no-ops without a tracer *)
  Obs.Trace.instant ~ts:1.0 ~cat:"rpc" ~name:"x" ();
  let sp = Obs.Trace.span ~ts:1.0 ~cat:"rpc" ~name:"y" () in
  Obs.Trace.finish ~ts:2.0 sp;
  let tr = Obs.Trace.create () in
  Alcotest.(check int) "nothing recorded anywhere" 0 (Obs.Trace.count tr);
  (* and a traced workload records nothing once uninstalled *)
  Obs.Trace.with_tracer tr (fun () -> ());
  Alcotest.(check bool) "uninstalled afterwards" false (Obs.Trace.on ())

let test_spans_well_formed () =
  let tr = traced_scenario () in
  let events = Obs.Trace.events tr in
  Alcotest.(check bool) "events were recorded" true (List.length events > 50);
  let begins = Hashtbl.create 64 in
  let ended = Hashtbl.create 64 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      Alcotest.(check bool) "timestamps nondecreasing" true
        (ev.ts >= !last_ts);
      last_ts := ev.ts;
      match ev.kind with
      | Obs.Trace.Begin ->
          Alcotest.(check bool) "span ids unique" false
            (Hashtbl.mem begins ev.id);
          Hashtbl.replace begins ev.id ev
      | Obs.Trace.End -> (
          match Hashtbl.find_opt begins ev.id with
          | None -> Alcotest.fail "end without begin"
          | Some (b : Obs.Trace.event) ->
              Alcotest.(check string) "end matches begin category" b.cat
                ev.cat;
              Alcotest.(check bool) "end not before begin" true
                (ev.ts >= b.ts);
              Alcotest.(check bool) "at most one end per span" false
                (Hashtbl.mem ended ev.id);
              Hashtbl.replace ended ev.id ())
      | Obs.Trace.Instant ->
          Alcotest.(check int) "instants carry no span id" 0 ev.id
      | Obs.Trace.Flow_start | Obs.Trace.Flow_end ->
          Alcotest.(check bool) "flows carry the inducing op id" true
            (ev.id > 0))
    events;
  Hashtbl.iter
    (fun id _ ->
      if not (Hashtbl.mem ended id) then
        Alcotest.fail (Printf.sprintf "span %d never finished" id))
    begins;
  (* the scenario touches every layer *)
  let cats =
    List.sort_uniq compare
      (List.map (fun (ev : Obs.Trace.event) -> ev.cat) events)
  in
  List.iter
    (fun cat ->
      Alcotest.(check bool) (cat ^ " events present") true
        (List.mem cat cats))
    [ "rpc"; "net"; "cache"; "snfs" ]

let test_chrome_export_parses () =
  let tr = traced_scenario () in
  let json = Obs.Json.parse (Obs.Chrome.to_string tr) in
  let entries =
    match member "traceEvents" json with
    | Some (Obs.Json.Arr entries) -> entries
    | _ -> Alcotest.fail "no traceEvents array"
  in
  (match member "displayTimeUnit" json with
  | Some (Obs.Json.Str "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let phases = List.map (fun e -> str_member "ph" e) entries in
  let real = List.filter (fun p -> p <> "M") phases in
  Alcotest.(check int) "one JSON entry per recorded event"
    (Obs.Trace.count tr) (List.length real);
  List.iter
    (fun entry ->
      ignore (str_member "name" entry);
      Alcotest.(check (float 0.0)) "pid is 1" 1.0 (num_member "pid" entry);
      ignore (num_member "tid" entry);
      match str_member "ph" entry with
      | "M" -> ()
      | "b" | "e" | "s" ->
          ignore (num_member "id" entry);
          ignore (num_member "ts" entry);
          ignore (str_member "cat" entry)
      | "f" ->
          (* arrow head binds to the enclosing slice's end *)
          Alcotest.(check string) "flow binding point" "e"
            (str_member "bp" entry);
          ignore (num_member "id" entry);
          ignore (num_member "ts" entry)
      | "i" ->
          Alcotest.(check string) "instant scope" "t" (str_member "s" entry);
          ignore (num_member "ts" entry)
      | ph -> Alcotest.fail (Printf.sprintf "unexpected phase %S" ph))
    entries

(* malformed input raises Obs.Json.Error, never a stray Failure from
   the number or escape decoder *)
let test_json_rejects_malformed () =
  let rejects s =
    match Obs.Json.parse s with
    | exception Obs.Json.Error _ -> ()
    | _ -> Alcotest.failf "accepted malformed input %S" s
  in
  rejects "";
  rejects "{";
  rejects "-";
  rejects {|{"n": 1e}|};
  rejects {|{"s": "\uZZZZ"}|};
  let json = Obs.Chrome.to_string (traced_scenario ()) in
  rejects (String.sub json 0 (String.length json / 2))

(* every server-side flow arrow must point at a minted client op: the
   flow id IS the inducing operation's root span id *)
let test_flow_ids_match_inducing_op () =
  let tr = traced_scenario () in
  let events = Obs.Trace.events tr in
  let op_ids = Hashtbl.create 64 in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      if ev.kind = Obs.Trace.Begin && ev.cat = "op" then
        Hashtbl.replace op_ids ev.id ())
    events;
  let starts = ref 0 and ends = ref 0 in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.kind with
      | Obs.Trace.Flow_start ->
          incr starts;
          Alcotest.(check bool) "flow start id is a client op" true
            (Hashtbl.mem op_ids ev.id)
      | Obs.Trace.Flow_end ->
          incr ends;
          Alcotest.(check bool) "flow end id is a client op" true
            (Hashtbl.mem op_ids ev.id)
      | _ -> ())
    events;
  (* the write-sharing scenario provokes at least one SNFS callback *)
  Alcotest.(check bool) "callbacks induced flow arrows" true (!starts > 0);
  Alcotest.(check bool) "every arrow lands" true (!ends > 0)

let test_percentiles_exact () =
  let h = Stats.Histogram.create "p.q" in
  List.iter (Stats.Histogram.add h) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let check_p p expected =
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "p%.0f" p)
      expected
      (Stats.Histogram.percentile h p)
  in
  check_p 0.0 1.0;
  check_p 25.0 2.0;
  check_p 50.0 3.0;
  check_p 75.0 4.0;
  check_p 100.0 5.0;
  Alcotest.(check (float 1e-9)) "p62.5 interpolates" 3.5
    (Stats.Histogram.percentile h 62.5);
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.Histogram.max_value h)

let prop_percentiles_ordered =
  QCheck.Test.make ~name:"percentiles monotone and bounded" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) pos_float)
    (fun samples ->
      let h = Stats.Histogram.create "a.b" in
      List.iter (Stats.Histogram.add h) samples;
      let p q = Stats.Histogram.percentile h q in
      let sorted = List.sort compare samples in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      (* endpoints are exact, interior percentiles sit between the
         neighbouring order statistics *)
      p 0.0 = arr.(0)
      && p 100.0 = arr.(n - 1)
      && p 50.0 >= arr.((n - 1) / 2)
      && p 50.0 <= arr.(n / 2)
      && p 0.0 <= p 50.0
      && p 50.0 <= p 90.0
      && p 90.0 <= p 99.0
      && p 99.0 <= p 100.0
      && Stats.Histogram.count h = n)

let test_trace_determinism_scenario () =
  let a = Obs.Chrome.to_string (traced_scenario ()) in
  let b = Obs.Chrome.to_string (traced_scenario ()) in
  Alcotest.(check int) "same size" (String.length a) (String.length b);
  Alcotest.(check bool) "byte-identical traces" true (String.equal a b)

(* a scaled-down Andrew run through the real experiment testbed *)
let chrome_of_small_andrew () =
  let tr = Obs.Trace.create () in
  ignore
    (Experiments.Driver.run ~trace:tr (fun engine ->
         let tb =
           Experiments.Testbed.create engine
             ~protocol:
               (Experiments.Testbed.Snfs_proto Snfs.Snfs_client.default_config)
             ~tmp:Experiments.Testbed.Tmp_remote ()
         in
         let ctx = Experiments.Testbed.ctx tb in
         let tree =
           {
             Workload.File_tree.default with
             dirs = 2;
             files_per_dir = 3;
             c_files_per_dir = 1;
             headers = 3;
           }
         in
         let config = { Workload.Andrew.default_config with tree } in
         let t = Workload.Andrew.setup ctx config in
         Workload.Andrew.run ctx config t));
  Obs.Chrome.to_string tr

let test_trace_determinism_andrew () =
  let a = chrome_of_small_andrew () in
  let b = chrome_of_small_andrew () in
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 10_000);
  Alcotest.(check int) "same size" (String.length a) (String.length b);
  Alcotest.(check bool) "byte-identical traces" true (String.equal a b)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "disabled tracing is silent" `Quick
            test_disabled_tracing_is_silent;
          Alcotest.test_case "spans well-formed" `Quick test_spans_well_formed;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "valid JSON with expected shape" `Quick
            test_chrome_export_parses;
          Alcotest.test_case "flow ids match inducing op" `Quick
            test_flow_ids_match_inducing_op;
        ] );
      ( "json",
        [
          Alcotest.test_case "malformed input raises Error" `Quick
            test_json_rejects_malformed;
        ] );
      ( "latency",
        Alcotest.test_case "exact percentiles" `Quick test_percentiles_exact
        :: qc [ prop_percentiles_ordered ] );
      ( "determinism",
        [
          Alcotest.test_case "two-client scenario" `Quick
            test_trace_determinism_scenario;
          Alcotest.test_case "seeded Andrew run" `Quick
            test_trace_determinism_andrew;
        ] );
    ]
