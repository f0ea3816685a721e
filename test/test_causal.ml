(* Acceptance tests for the causal-tracing PR: the offline analyzer
   reconstructs complete per-operation trees from a traced SNFS
   write-sharing run, links every callback span to the client
   operation that induced it (Chrome flow events) and renders its
   report deterministically; the flight recorder keeps a bounded ring
   behind the ordinary probe sites. *)

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

(* ---- the write-sharing SNFS world: two clients ping-pong a file so
   the server issues callbacks on every conflicting open ---- *)

let scenario e =
  let net = Netsim.Net.create e () in
  let rpc = Netsim.Rpc.create net () in
  let server_host = Netsim.Net.Host.create net "server" in
  let server_disk = Diskm.Disk.create e "server-disk" in
  let server_fs =
    Localfs.create e ~name:"srvfs" ~disk:server_disk ~cache_blocks:896
      ~meta_policy:`Sync ()
  in
  let server = Snfs.Snfs_server.serve rpc server_host ~fsid:2 server_fs in
  let client name =
    let host = Netsim.Net.Host.create net name in
    let c =
      Snfs.Snfs_client.mount rpc ~client:host ~server:server_host
        ~root:(Snfs.Snfs_server.root_fh server) ~name ()
    in
    let mounts = Vfs.Mount.create () in
    Vfs.Mount.mount mounts ~at:"/" (Snfs.Snfs_client.fs c);
    mounts
  in
  let m1 = client "c1" in
  let m2 = client "c2" in
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

let analyzed () =
  let tr = Obs.Trace.create () in
  Obs.Trace.with_tracer tr (fun () -> run_sim scenario);
  Obs.Analyze.of_chrome ~label:"scenario" (Obs.Chrome.to_string tr)

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
  run_sim scenario;
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
