(* Acceptance tests for the causal-tracing PR: the offline analyzer
   reconstructs complete per-operation trees from a traced SNFS
   write-sharing run, links every callback span to the client
   operation that induced it (Chrome flow events) and renders its
   report deterministically; the flight recorder keeps a bounded ring
   behind the ordinary probe sites. *)

let analyzed () =
  Obs.Analyze.of_chrome ~label:"scenario"
    (Obs.Chrome.to_string (Sharing.traced ()))

(* ---- every callback is flow-linked to its inducing operation ---- *)

let test_callbacks_flow_linked () =
  let run = analyzed () in
  Alcotest.(check string) "protocol inferred" "snfs" run.Obs.Analyze.protocol;
  Alcotest.(check bool) "traced ops" true (run.Obs.Analyze.ops <> []);
  Alcotest.(check int) "complete trees" 0 run.Obs.Analyze.orphan_spans;
  Alcotest.(check bool)
    "write sharing induced callbacks" true
    (run.Obs.Analyze.callback_spans > 0);
  Alcotest.(check int)
    "every callback span flow-linked to its inducing op"
    run.Obs.Analyze.callback_spans run.Obs.Analyze.flow_linked;
  Alcotest.(check bool)
    "flow arrows recorded" true
    (run.Obs.Analyze.flow_starts > 0
    && run.Obs.Analyze.flow_ends > 0);
  (* the inducing operations actually charge consistency time *)
  let induced = List.filter (fun o -> o.Obs.Analyze.fanout > 0) run.Obs.Analyze.ops in
  Alcotest.(check bool) "some op has fan-out" true (induced <> []);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "op %d (%s) charges consist time" o.Obs.Analyze.op_id
           o.Obs.Analyze.cls)
        true
        (o.Obs.Analyze.consist > 0.0))
    induced

(* ---- the analyzer report is a pure function of the workload ---- *)

let test_report_deterministic () =
  let report () = Obs.Analyze.report [ analyzed () ] in
  let a = report () and b = report () in
  Alcotest.(check bool) "report non-trivial" true (String.length a > 200);
  Alcotest.(check string) "two runs render byte-identically" a b

(* ---- flight recorder: a bounded ring behind the ordinary probe
   sites, snapshot on demand ---- *)

let test_flight_recorder () =
  (* with nothing installed, a root operation runs under the empty
     context *)
  Alcotest.(check int)
    "root context with tracing off" Obs.Causal.none
    (Obs.Causal.root
       ~now:(fun () -> Alcotest.fail "clock read with tracing off")
       ~track:"t" ~name:"op" Fun.id);
  (* a ring tracer keeps counting but retains a bounded window *)
  let tr = Obs.Trace.create ~limit:64 () in
  Obs.Trace.with_tracer tr (fun () ->
      for i = 1 to 1000 do
        Obs.Trace.instant ~ts:(float_of_int i) ~cat:"x" ~name:"tick" ()
      done);
  Alcotest.(check int) "all emits counted" 1000 (Obs.Trace.count tr);
  Alcotest.(check bool)
    "ring retains a bounded window" true
    (List.length (Obs.Trace.events tr) < 1000);
  (* arm the recorder, run the real workload through the ordinary
     probe sites, snapshot as a post-mortem would *)
  Obs.Flight.arm ();
  Harness.run_sim Sharing.scenario;
  Obs.Flight.capture ~reason:"test oracle";
  (match Obs.Flight.last () with
  | None -> Alcotest.fail "no flight capture"
  | Some (reason, json) ->
      Alcotest.(check string) "capture reason" "test oracle" reason;
      (* the dump is well-formed Chrome JSON holding recent events
         with real phases and timestamps *)
      let entries =
        match Obs.Json.member "traceEvents" (Obs.Json.parse json) with
        | Some (Obs.Json.Arr es) -> es
        | _ -> Alcotest.fail "no traceEvents in flight dump"
      in
      let phased =
        List.filter
          (fun e ->
            Obs.Json.str_member "ph" e <> None)
          entries
      in
      Alcotest.(check bool) "ring dump non-empty" true (phased <> []);
      Alcotest.(check bool)
        "entries carry numeric timestamps" true
        (List.for_all
           (fun e ->
             match Obs.Json.member "ts" e with
             | Some (Obs.Json.Num _) -> true
             | Some _ -> false
             | None -> true (* metadata entries have no ts *))
           phased));
  Obs.Flight.disarm ();
  Alcotest.(check (option (pair string string)))
    "capture forgotten on disarm" None (Obs.Flight.last ());
  Obs.Flight.capture ~reason:"after disarm";
  Alcotest.(check (option (pair string string)))
    "no capture once disarmed" None (Obs.Flight.last ())

let () =
  Alcotest.run "causal"
    [
      ( "analyzer",
        [
          Alcotest.test_case "callbacks flow-linked" `Slow
            test_callbacks_flow_linked;
          Alcotest.test_case "report deterministic" `Slow
            test_report_deterministic;
        ] );
      ( "budget",
        [
          Alcotest.test_case "flight recorder ring" `Quick
            test_flight_recorder;
        ] );
    ]
