(* Fault-path tests: the duplicate-request cache under message loss and
   delay (Section 3.2's delayed duplicates), partition-driven crash
   detection (Section 2.4), and the post-reboot recovery grace period.
   These exercise the failure machinery directly, with the RPC layer's
   metrics-registry counters (executed calls, duplicates, retransmits)
   proving that suppression — not luck — produced the right answer. *)

open Harness

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

type world = { cluster : Cluster.t; server : Stack.server }

let make_world e =
  let cluster = Cluster.create e in
  { cluster; server = Cluster.serve cluster ~fsid:2 Stack.Snfs }

let snfs_server w = Option.get w.server.snfs_server

(* a client host [name] with the SNFS stack mounted at / *)
let snfs_client w name =
  Cluster.mount w.cluster w.server ~host:name ~name (Stack.default Stack.Snfs)

(* a counting echo service: the handler's side effect is visible, so
   re-execution of a retried request cannot hide *)
let serve_echo rpc host executions =
  Netsim.Rpc.serve rpc host ~prog:"echo" ~threads:4 ~unknown:Nfs.Wire.unknown
    [
      ( "bump",
        fun ~caller:_ ~ctx:_ dec ->
          let x = Xdr.Dec.uint32 dec in
          let n = try Hashtbl.find executions x with Not_found -> 0 in
          Hashtbl.replace executions x (n + 1);
          let e = Xdr.Enc.create () in
          Xdr.Enc.uint32 e (x + 1);
          { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 } );
    ]

let echo_once rpc ~src ~dst x =
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e x;
  let d =
    Xdr.Dec.of_bytes
      (Netsim.Rpc.call rpc ~src ~dst ~prog:"echo" ~proc:"bump"
         (Xdr.Enc.to_bytes e))
  in
  Xdr.Dec.uint32 d

let test_dup_suppression_under_jitter () =
  (* delivery jitter far above the 1 s retransmission timeout: most first
     attempts are retransmitted while the original request is still in
     flight or already executing, so the server sees a stream of the
     delayed duplicates Section 3.2 warns about *)
  counted (fun total e ->
      let net = Netsim.Net.create e () in
      let rpc = Netsim.Rpc.create net () in
      let server = Netsim.Net.Host.create net "server" in
      let client = Netsim.Net.Host.create net "client" in
      let executions = Hashtbl.create 64 in
      ignore (serve_echo rpc server executions);
      Netsim.Net.set_jitter net 5.0;
      let ncalls = 50 in
      for i = 1 to ncalls do
        Alcotest.(check int) "reply matches request" (i + 1)
          (echo_once rpc ~src:client ~dst:server i)
      done;
      Alcotest.(check bool) "jitter forced retransmissions" true
        (total "rpc_retransmits_total" > 0);
      Alcotest.(check bool) "duplicates reached the server" true
        (total "rpc_duplicates_total" > 0);
      Alcotest.(check int) "every request executed exactly once" ncalls
        (total "rpc_server_calls_total");
      Hashtbl.iter
        (fun x n ->
          Alcotest.(check int)
            (Printf.sprintf "request %d not re-executed" x)
            1 n)
        executions)

let test_dup_suppression_under_drops () =
  (* message loss: a dropped reply makes the client retransmit a
     request the server already executed; the cached reply must be
     replayed rather than the handler run again *)
  counted (fun total e ->
      let net = Netsim.Net.create e () in
      let rpc = Netsim.Rpc.create net () in
      let server = Netsim.Net.Host.create net "server" in
      let client = Netsim.Net.Host.create net "client" in
      let executions = Hashtbl.create 64 in
      ignore (serve_echo rpc server executions);
      Netsim.Net.set_drop_probability net 0.2;
      let ncalls = 40 in
      let ok = ref 0 in
      for i = 1 to ncalls do
        match echo_once rpc ~src:client ~dst:server i with
        | reply ->
            Alcotest.(check int) "reply matches request" (i + 1) reply;
            incr ok
        | exception Netsim.Rpc.Timeout _ -> ()
      done;
      Alcotest.(check bool) "most calls eventually succeeded" true
        (!ok > ncalls / 2);
      Alcotest.(check bool) "messages were dropped" true
        (total "net_messages_dropped_total" > 0);
      Alcotest.(check bool) "retransmissions happened" true
        (total "rpc_retransmits_total" > 0);
      Alcotest.(check bool) "duplicates absorbed by the cache" true
        (total "rpc_duplicates_total" > 0);
      Hashtbl.iter
        (fun x n ->
          Alcotest.(check int)
            (Printf.sprintf "request %d not re-executed" x)
            1 n)
        executions)

(* regression for the old one-shot reaper's data-loss hazard: a client
   that was merely partitioned used to be forgotten outright (opens
   dropped, files flagged inconsistent). Under the laundromat it lands
   in Courtesy with all state retained, and is revived by a probe when
   the partition heals — no reopen, no loss. *)
let test_partition_lands_in_courtesy_and_resumes () =
  run_sim (fun e ->
      let w = make_world e in
      let server = snfs_server w in
      Snfs.Snfs_server.start_laundromat ~lease:30.0 ~courtesy_lifetime:600.0
        server ~interval:20.0;
      Alcotest.check_raises "second laundromat refused"
        (Invalid_argument "Snfs_server.start_laundromat: already started")
        (fun () ->
          Snfs.Snfs_server.start_laundromat server ~interval:20.0);
      let { Cluster.host; mounts = m; _ } = snfs_client w "c1" in
      let client_addr = Netsim.Net.Host.addr host in
      let fd = Vfs.Fileio.creat m "/held-open" in
      ignore (Vfs.Fileio.write ~stamp:77 fd ~len:4096);
      Vfs.Fileio.fsync fd;
      (* fd deliberately left open: the server holds state for c1 *)
      let table = Snfs.Snfs_server.state_table server in
      Alcotest.(check int) "state held" 1
        (Spritely.State_table.entry_count table);
      let openers () =
        List.concat_map
          (fun file ->
            List.map (fun (c, _, _) -> c)
              (Spritely.State_table.openers table ~file))
          (Spritely.State_table.files table)
      in
      Netsim.Net.partition w.cluster.net host w.cluster.server_host;
      (* wait for the laundromat's failed probe to demote the client *)
      let deadline = Sim.Engine.now e +. 300.0 in
      while
        Snfs.Snfs_server.client_state server ~client:client_addr
          = Spritely.Lifecycle.Active
        && Sim.Engine.now e < deadline
      do
        Sim.Engine.sleep e 5.0
      done;
      Alcotest.(check bool) "demoted to Courtesy" true
        (Snfs.Snfs_server.client_state server ~client:client_addr
        = Spritely.Lifecycle.Courtesy);
      let stats = Snfs.Snfs_server.lifecycle_stats server in
      Alcotest.(check bool) "a demotion was counted" true
        (stats.Snfs.Snfs_server.demotions >= 1);
      (* the whole point: nothing was reaped, the opens are retained *)
      Alcotest.(check int) "no client reaped" 0
        (Snfs.Snfs_server.clients_reaped server);
      Alcotest.(check (list int)) "open state retained" [ client_addr ]
        (openers ());
      (* heal: the next laundromat probe answers and revives the client *)
      Netsim.Net.heal w.cluster.net host w.cluster.server_host;
      let deadline = Sim.Engine.now e +. 300.0 in
      while
        Snfs.Snfs_server.client_state server ~client:client_addr
          <> Spritely.Lifecycle.Active
        && Sim.Engine.now e < deadline
      do
        Sim.Engine.sleep e 5.0
      done;
      Alcotest.(check bool) "revived to Active" true
        (Snfs.Snfs_server.client_state server ~client:client_addr
        = Spritely.Lifecycle.Active);
      let stats = Snfs.Snfs_server.lifecycle_stats server in
      Alcotest.(check bool) "a revival was counted" true
        (stats.Snfs.Snfs_server.revivals >= 1);
      Alcotest.(check int) "still nothing reaped" 0
        (Snfs.Snfs_server.clients_reaped server);
      Alcotest.(check (list int)) "open state survived the partition"
        [ client_addr ] (openers ());
      Alcotest.(check bool) "file not flagged inconsistent" false
        (Spritely.State_table.was_inconsistent table
           ~file:(List.hd (Spritely.State_table.files table)));
      (* the client resumes on the same descriptor — no reopen storm *)
      Vfs.Fileio.seek fd 0;
      ignore (Vfs.Fileio.write ~stamp:78 fd ~len:4096);
      Vfs.Fileio.fsync fd;
      Vfs.Fileio.close fd;
      let m2 = (snfs_client w "c2").mounts in
      let fd2 = Vfs.Fileio.openf m2 "/held-open" Vfs.Fs.Read_only in
      let runs = Vfs.Fileio.read fd2 ~len:4096 in
      Vfs.Fileio.close fd2;
      Alcotest.(check (list (pair int int))) "post-heal write visible"
        [ (78, 4096) ] runs)

(* the courtesy state is a reprieve, not an amnesty: when the partition
   outlasts the courtesy lifetime the laundromat reaps the client after
   all, exactly as the legacy reaper would have *)
let test_courtesy_expires_when_partition_outlasts_lifetime () =
  run_sim (fun e ->
      let w = make_world e in
      let server = snfs_server w in
      Snfs.Snfs_server.start_laundromat ~lease:10.0 ~courtesy_lifetime:40.0
        server ~interval:10.0;
      let { Cluster.host; mounts = m; _ } = snfs_client w "c1" in
      let fd = Vfs.Fileio.creat m "/held-open" in
      ignore (Vfs.Fileio.write fd ~len:4096);
      ignore fd;
      let table = Snfs.Snfs_server.state_table server in
      Netsim.Net.partition w.cluster.net host w.cluster.server_host;
      let deadline = Sim.Engine.now e +. 500.0 in
      while
        Snfs.Snfs_server.clients_reaped server = 0
        && Sim.Engine.now e < deadline
      do
        Sim.Engine.sleep e 10.0
      done;
      Alcotest.(check int) "reaped after the courtesy lifetime" 1
        (Snfs.Snfs_server.clients_reaped server);
      let stats = Snfs.Snfs_server.lifecycle_stats server in
      Alcotest.(check int) "reaped from Courtesy, not Expirable" 1
        stats.Snfs.Snfs_server.reaped_courtesy;
      Alcotest.(check int) "no conflict was involved" 0
        stats.Snfs.Snfs_server.reaped_expirable;
      Alcotest.(check (list int)) "state dropped" []
        (List.concat_map
           (fun file ->
             List.map (fun (c, _, _) -> c)
               (Spritely.State_table.openers table ~file))
           (Spritely.State_table.files table)))

(* the typed retry budget: a budgeted call rides out an outage shorter
   than the budget and surfaces Server_unavailable on a longer one *)
let test_retry_budget_surfaces_server_unavailable () =
  run_sim (fun e ->
      let net = Netsim.Net.create e () in
      let rpc = Netsim.Rpc.create net () in
      let server = Netsim.Net.Host.create net "server" in
      let client = Netsim.Net.Host.create net "client" in
      let executions = Hashtbl.create 8 in
      ignore (serve_echo rpc server executions);
      let echo ~budget x =
        let enc = Xdr.Enc.create () in
        Xdr.Enc.uint32 enc x;
        let d =
          Xdr.Dec.of_bytes
            (Netsim.Rpc.call rpc ~src:client ~dst:server
               ~prog:"echo" ~proc:"bump" ~budget (Xdr.Enc.to_bytes enc))
        in
        Xdr.Dec.uint32 d
      in
      (* outage longer than the budget: typed failure, not Timeout. One
         round is the full 63 s retransmission schedule. *)
      Netsim.Net.Host.crash server;
      let t0 = Sim.Engine.now e in
      (match echo ~budget:300.0 5 with
      | _ -> Alcotest.fail "call must not succeed against a dead server"
      | exception Netsim.Rpc.Server_unavailable { prog; proc; waited } ->
          Alcotest.(check string) "prog" "echo" prog;
          Alcotest.(check string) "proc" "bump" proc;
          (* the budget caps the backoff schedule; the final round may
             overshoot it by up to one retransmission schedule *)
          Alcotest.(check bool) "waited out the budget" true
            (waited > 150.0 && waited < 375.0));
      Alcotest.(check bool) "gave up promptly after the budget" true
        (Sim.Engine.now e -. t0 < 390.0);
      (* outage shorter than the budget but longer than one round: the
         call rides it out in a later round *)
      Sim.Engine.spawn e ~name:"rebooter" (fun () ->
          Sim.Engine.sleep e 75.0;
          Netsim.Net.Host.reboot server);
      let t1 = Sim.Engine.now e in
      Alcotest.(check int) "budgeted call survives the reboot" 8
        (echo ~budget:900.0 7);
      Alcotest.(check bool) "the outage outlasted one round" true
        (Sim.Engine.now e -. t1 > 63.0))

(* a retry budget is checked where the client config enters: mounting
   refuses a budget that is not positive, whatever the protocol *)
let test_retry_budget_validated_at_mount () =
  let e = Sim.Engine.create () in
  let w = make_world e in
  let mount name ~budget kind =
    Cluster.mount w.cluster w.server ~host:name ~name
      (Stack.with_retry_budget (Some budget) (Stack.default kind))
  in
  let refused =
    Invalid_argument "Client_core.create: retry_budget must be positive"
  in
  List.iteri
    (fun i budget ->
      let name kind = Printf.sprintf "%s%d" kind i in
      Alcotest.check_raises "SNFS mount refuses" refused (fun () ->
          ignore (mount (name "s") ~budget Stack.Snfs));
      Alcotest.check_raises "NFS mount refuses" refused (fun () ->
          ignore (mount (name "n") ~budget Stack.Nfs)))
    [ 0.0; -1.0 ];
  (* a positive budget mounts *)
  ignore (mount "ok" ~budget:0.5 Stack.Snfs)

let test_grace_rejects_unrecovered_clients () =
  (* after a reboot with recovery_grace, an open from a client that has
     not replayed its state via reopen is refused with the retryable
     Again error; the same server admits a recovered client at once *)
  run_sim (fun e ->
      (* a cluster of its own, whose server has a grace period *)
      let cluster = Cluster.create e in
      let server =
        Cluster.serve ~recovery_grace:30.0 cluster ~fsid:9 Stack.Snfs
      in
      let w = { cluster; server } in
      let server_host = cluster.server_host in
      let c1 = snfs_client w "g1" in
      let m1 = c1.mounts in
      let lone_host = (snfs_client w "g2").host in
      (* client 1's keepalive learns the boot epoch before the crash,
         and replays its state once a ping sees the new one *)
      Snfs.Snfs_client.start_keepalive
        (Option.get c1.stack.snfs_client)
        ~interval:1.0;
      Vfs.Fileio.write_file m1 "/a" ~bytes:4096;
      Sim.Engine.sleep e 1.5;
      Netsim.Net.Host.crash server_host;
      Sim.Engine.sleep e 2.0;
      Netsim.Net.Host.reboot server_host;
      (* a raw open from a client that has not recovered; the first
         post-reboot call, this or a keepalive ping, starts the grace
         window *)
      let raw_call ~proc ?bulk args =
        Netsim.Rpc.call cluster.rpc ~src:lone_host ~dst:server_host
          ~prog:Snfs.Snfs_server.prog ~proc ?bulk args
      in
      let root = server.root in
      (match Nfs.Wire.snfs_open raw_call root ~write_mode:false with
      | _ -> Alcotest.fail "open from unrecovered client must be refused"
      | exception Localfs.Error Localfs.Again -> ());
      (* client 1 replays its state and is admitted during the grace *)
      Sim.Engine.sleep e 3.0;
      let t0 = Sim.Engine.now e in
      ignore (Vfs.Fileio.read_file m1 "/a");
      Alcotest.(check bool) "recovered client admitted promptly" true
        (Sim.Engine.now e -. t0 < 5.0);
      (* the unrecovered client keeps being refused until it replays *)
      (match Nfs.Wire.snfs_open raw_call root ~write_mode:false with
      | _ -> Alcotest.fail "still-unrecovered client must be refused"
      | exception Localfs.Error Localfs.Again -> ());
      (* after the grace expires the refusals stop *)
      Sim.Engine.sleep e 35.0;
      ignore (Nfs.Wire.snfs_open raw_call root ~write_mode:false))

let () =
  Alcotest.run "faults"
    [
      ( "duplicate suppression",
        [
          Alcotest.test_case "under delivery jitter" `Quick
            test_dup_suppression_under_jitter;
          Alcotest.test_case "under message loss" `Quick
            test_dup_suppression_under_drops;
        ] );
      ( "partition",
        [
          Alcotest.test_case "courtesy, then heal resumes" `Quick
            test_partition_lands_in_courtesy_and_resumes;
          Alcotest.test_case "courtesy expires eventually" `Quick
            test_courtesy_expires_when_partition_outlasts_lifetime;
        ] );
      ( "retry budget",
        [
          Alcotest.test_case "server unavailable surfaced" `Quick
            test_retry_budget_surfaces_server_unavailable;
          Alcotest.test_case "non-positive budget refused at mount" `Quick
            test_retry_budget_validated_at_mount;
        ] );
      ( "recovery grace",
        [
          Alcotest.test_case "unrecovered clients refused" `Quick
            test_grace_rejects_unrecovered_clients;
        ] );
    ]
