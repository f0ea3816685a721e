(* Fault-path tests: the duplicate-request cache under message loss and
   delay (Section 3.2's delayed duplicates), partition-driven crash
   detection (Section 2.4), and the post-reboot recovery grace period.
   These exercise the failure machinery directly, with the RPC layer's
   metrics-registry counters (executed calls, duplicates, retransmits)
   proving that suppression — not luck — produced the right answer. *)

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

(* [run_sim] under a fresh metrics registry, where the network and RPC
   statistics are counted: [f] also gets [total], the run's count so far
   of one registry counter, summed over its labels *)
let counted f =
  let m = Obs.Metrics.create () in
  let total name =
    List.fold_left (fun a (_, n) -> a + n) 0 (Obs.Metrics.counters_with m name)
  in
  Obs.Metrics.with_metrics m (fun () -> run_sim (f total))

type world = {
  net : Netsim.Net.t;
  rpc : Netsim.Rpc.t;
  server_host : Netsim.Net.Host.t;
  server_fs : Localfs.t;
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
  { net; rpc; server_host; server_fs; snfs_server }

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
      (Netsim.Rpc.call rpc
         ~config:{ (Netsim.Rpc.config rpc) with timeout = 0.2 }
         ~src ~dst ~prog:"echo" ~proc:"bump" (Xdr.Enc.to_bytes e))
  in
  Xdr.Dec.uint32 d

let test_dup_suppression_under_jitter () =
  (* delivery jitter far above the retransmission timeout: most first
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
      Netsim.Net.set_jitter net 1.0;
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
      let server = w.snfs_server in
      Snfs.Snfs_server.start_laundromat ~lease:30.0 ~courtesy_lifetime:600.0
        server ~interval:20.0;
      Alcotest.check_raises "second laundromat refused"
        (Invalid_argument "Snfs_server.start_laundromat: already started")
        (fun () ->
          Snfs.Snfs_server.start_laundromat server ~interval:20.0);
      let host, _, m = snfs_client w "c1" in
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
      Netsim.Net.partition w.net host w.server_host;
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
      Netsim.Net.heal w.net host w.server_host;
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
      let _, _, m2 = snfs_client w "c2" in
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
      let server = w.snfs_server in
      Snfs.Snfs_server.start_laundromat ~lease:10.0 ~courtesy_lifetime:40.0
        server ~interval:10.0;
      let host, _, m = snfs_client w "c1" in
      let fd = Vfs.Fileio.creat m "/held-open" in
      ignore (Vfs.Fileio.write fd ~len:4096);
      ignore fd;
      let table = Snfs.Snfs_server.state_table server in
      Netsim.Net.partition w.net host w.server_host;
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
      let quick = { (Netsim.Rpc.config rpc) with timeout = 0.2; retries = 3 } in
      let echo ~budget x =
        let enc = Xdr.Enc.create () in
        Xdr.Enc.uint32 enc x;
        let d =
          Xdr.Dec.of_bytes
            (Netsim.Rpc.call rpc ~config:quick ~src:client ~dst:server
               ~prog:"echo" ~proc:"bump" ~budget (Xdr.Enc.to_bytes enc))
        in
        Xdr.Dec.uint32 d
      in
      (* outage longer than the budget: typed failure, not Timeout *)
      Netsim.Net.Host.crash server;
      let t0 = Sim.Engine.now e in
      (match echo ~budget:20.0 5 with
      | _ -> Alcotest.fail "call must not succeed against a dead server"
      | exception Netsim.Rpc.Server_unavailable { prog; proc; waited } ->
          Alcotest.(check string) "prog" "echo" prog;
          Alcotest.(check string) "proc" "bump" proc;
          (* the budget caps the backoff schedule; the final round may
             overshoot it by up to one retransmission schedule *)
          Alcotest.(check bool) "waited out the budget" true
            (waited > 10.0 && waited < 25.0));
      Alcotest.(check bool) "gave up promptly after the budget" true
        (Sim.Engine.now e -. t0 < 26.0);
      (* outage shorter than the budget: the call rides it out *)
      Sim.Engine.spawn e ~name:"rebooter" (fun () ->
          Sim.Engine.sleep e 5.0;
          Netsim.Net.Host.reboot server);
      Alcotest.(check int) "budgeted call survives the reboot" 8
        (echo ~budget:60.0 7))

(* a retry budget is checked where the client config enters: mounting
   refuses a budget that is not positive, whatever the protocol *)
let test_retry_budget_validated_at_mount () =
  let e = Sim.Engine.create () in
  let w = make_world e in
  let root = Snfs.Snfs_server.root_fh w.snfs_server in
  let refused =
    Invalid_argument "Client_core.create: retry_budget must be positive"
  in
  List.iteri
    (fun i budget ->
      let retry_budget = Some budget in
      let host kind =
        Netsim.Net.Host.create w.net (Printf.sprintf "%s%d" kind i)
      in
      Alcotest.check_raises "SNFS mount refuses" refused (fun () ->
          ignore
            (Snfs.Snfs_client.mount w.rpc ~client:(host "s")
               ~server:w.server_host ~root
               ~config:{ Snfs.Snfs_client.default_config with retry_budget }
               ()));
      Alcotest.check_raises "NFS mount refuses" refused (fun () ->
          ignore
            (Nfs.Nfs_client.mount w.rpc ~client:(host "n")
               ~server:w.server_host ~root
               ~config:{ Nfs.Nfs_client.default_config with retry_budget }
               ())))
    [ 0.0; -1.0 ];
  (* a positive budget mounts *)
  ignore
    (Snfs.Snfs_client.mount w.rpc
       ~client:(Netsim.Net.Host.create w.net "ok")
       ~server:w.server_host ~root
       ~config:{ Snfs.Snfs_client.default_config with retry_budget = Some 0.5 }
       ())

let test_grace_rejects_unrecovered_clients () =
  (* after a reboot with recovery_grace, an open from a client that has
     not replayed its state via reopen is refused with the retryable
     Again error; the same server admits a recovered client at once *)
  run_sim (fun e ->
      let w = make_world e in
      (* a server of its own, on a host of its own *)
      let server_host = Netsim.Net.Host.create w.net "grace-server" in
      let server =
        Snfs.Snfs_server.serve w.rpc server_host ~fsid:9 ~recovery_grace:30.0
          w.server_fs
      in
      let mount_on name =
        let host = Netsim.Net.Host.create w.net name in
        let c =
          Snfs.Snfs_client.mount w.rpc ~client:host ~server:server_host
            ~root:(Snfs.Snfs_server.root_fh server) ~name ()
        in
        let m = Vfs.Mount.create () in
        Vfs.Mount.mount m ~at:"/" (Snfs.Snfs_client.fs c);
        (host, c, m)
      in
      let _, c1, m1 = mount_on "g1" in
      let lone_host, _, _ = mount_on "g2" in
      (* client 1's keepalive learns the boot epoch before the crash,
         and replays its state once a ping sees the new one *)
      Snfs.Snfs_client.start_keepalive c1 ~interval:1.0;
      Vfs.Fileio.write_file m1 "/a" ~bytes:4096;
      Sim.Engine.sleep e 1.5;
      Netsim.Net.Host.crash server_host;
      Sim.Engine.sleep e 2.0;
      Netsim.Net.Host.reboot server_host;
      (* a raw open from a client that has not recovered; the first
         post-reboot call, this or a keepalive ping, starts the grace
         window *)
      let raw_call ~proc ?bulk args =
        Netsim.Rpc.call w.rpc ~src:lone_host ~dst:server_host
          ~prog:Snfs.Snfs_server.prog ~proc ?bulk args
      in
      let root = Snfs.Snfs_server.root_fh server in
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
