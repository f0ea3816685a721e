(* End-to-end integration tests: NFS, SNFS, RFS and Kent clients and servers
   over the simulated network, exercised through the GFS system-call
   layer. Covers basic correctness on every protocol, the consistency
   differences the paper is about, callbacks, write-aversion, and crash
   recovery. *)

open Harness

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

(* the server's count so far of one procedure's calls *)
let calls service proc = Stats.Counter.get (Netsim.Rpc.counters service) proc

let host h = [ ("host", h) ]

(* one cluster serving all four protocols, NFS to Kent as fsid 1 to 4 *)
type world = { cluster : Cluster.t; servers : (Stack.kind * Stack.server) list }

let make_world e =
  let cluster = Cluster.create e in
  {
    cluster;
    servers =
      List.mapi
        (fun i kind -> (kind, Cluster.serve cluster ~fsid:(i + 1) kind))
        Stack.kinds;
  }

let service w kind = (List.assoc kind w.servers).service
let snfs_server w = Option.get (List.assoc Stack.Snfs w.servers).snfs_server
let snfs_client (c : Cluster.client) = Option.get c.stack.snfs_client

(* a client host [name] with [kind]'s stack mounted at /, configured by
   [protocol] (default: [kind]'s default) *)
let mount ?protocol w kind name =
  Cluster.mount w.cluster (List.assoc kind w.servers) ~host:name ~name
    (Option.value protocol ~default:(Stack.default kind))

(* ---- generic protocol conformance, run against all four ---- *)

let basic_ops_roundtrip kind () =
  run_sim (fun e ->
      let w = make_world e in
      let m = (mount w kind "c1").mounts in
      Vfs.Fileio.mkdir m "/src";
      let stamp = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m "/src/a.c" in
      ignore (Vfs.Fileio.write ~stamp fd ~len:10000);
      Vfs.Fileio.close fd;
      (* read it back through the same client *)
      let fd = Vfs.Fileio.openf m "/src/a.c" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd ~len:20000 in
      Vfs.Fileio.close fd;
      let bytes = List.fold_left (fun a (_, n) -> a + n) 0 observed in
      Alcotest.(check int) "all bytes read" 10000 bytes;
      List.iter
        (fun (s, _) -> Alcotest.(check int) "right content" stamp s)
        observed;
      (* namespace ops *)
      let names = Vfs.Fileio.readdir m "/src" in
      Alcotest.(check (list string)) "readdir" [ "a.c" ] names;
      let attrs = Vfs.Fileio.stat m "/src/a.c" in
      Alcotest.(check int) "size" 10000 attrs.Localfs.size;
      Vfs.Fileio.rename m ~src:"/src/a.c" ~dst:"/src/b.c";
      Alcotest.(check bool) "renamed" true (Vfs.Fileio.exists m "/src/b.c");
      Vfs.Fileio.unlink m "/src/b.c";
      Alcotest.(check bool) "gone" false (Vfs.Fileio.exists m "/src/b.c"))

(* the namespace operations and fsync every client gets from the shared
   client core *)
let namespace_and_fsync kind () =
  run_sim (fun e ->
      let w = make_world e in
      let m = (mount w kind "c1").mounts in
      let server = Vfs.Mount.create () in
      Vfs.Mount.mount server ~at:"/" (Vfs.Local_mount.make w.cluster.server_fs);
      let on_server path =
        let fd = Vfs.Fileio.openf server path Vfs.Fs.Read_only in
        let observed = Vfs.Fileio.read fd ~len:4096 in
        Vfs.Fileio.close fd;
        observed
      in
      Vfs.Fileio.mkdir m "/a";
      Vfs.Fileio.mkdir m "/b";
      (* a partial block: every protocol holds it back *)
      let stamp = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m "/a/x" in
      ignore (Vfs.Fileio.write ~stamp fd ~len:1000);
      Alcotest.(check bool) "still dirty before fsync" false
        (List.mem (stamp, 1000) (on_server "/a/x"));
      Vfs.Fileio.fsync fd;
      Alcotest.(check (list (pair int int))) "on the server after fsync"
        [ (stamp, 1000) ] (on_server "/a/x");
      Vfs.Fileio.close fd;
      (match Vfs.Fileio.rmdir m "/a" with
      | () -> Alcotest.fail "rmdir of a non-empty directory succeeded"
      | exception Localfs.Error Localfs.Notempty -> ());
      Vfs.Fileio.rename m ~src:"/a/x" ~dst:"/b/y";
      Alcotest.(check bool) "gone from /a" false (Vfs.Fileio.exists m "/a/x");
      Alcotest.(check (list string)) "moved to /b" [ "y" ]
        (Vfs.Fileio.readdir m "/b");
      Alcotest.(check (list (pair int int))) "moved with its data"
        [ (stamp, 1000) ] (on_server "/b/y");
      Vfs.Fileio.rmdir m "/a";
      Alcotest.(check bool) "emptied directory removed" false
        (Vfs.Fileio.exists m "/a"))

let sequential_write_sharing kind () =
  (* writer closes before reader opens: every protocol must provide
     consistency here (Section 2.3 "sequential write-sharing") *)
  run_sim (fun e ->
      let w = make_world e in
      let m1 = (mount w kind "c1").mounts in
      let m2 = (mount w kind "c2").mounts in
      let stamp1 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/shared" in
      ignore (Vfs.Fileio.write ~stamp:stamp1 fd ~len:8192);
      Vfs.Fileio.close fd;
      (* client 2 reads *)
      let fd = Vfs.Fileio.openf m2 "/shared" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd ~len:8192 in
      Vfs.Fileio.close fd;
      List.iter
        (fun (s, _) -> Alcotest.(check int) "client2 sees client1's data" stamp1 s)
        observed;
      (* client 1 overwrites; client 2 re-opens and must see new data *)
      let stamp2 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/shared" in
      ignore (Vfs.Fileio.write ~stamp:stamp2 fd ~len:8192);
      Vfs.Fileio.close fd;
      Sim.Engine.sleep e 1.0;
      let fd = Vfs.Fileio.openf m2 "/shared" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd ~len:8192 in
      Vfs.Fileio.close fd;
      List.iter
        (fun (s, _) ->
          Alcotest.(check int) "client2 sees overwritten data" stamp2 s)
        observed)

(* ---- protocol-specific behaviour ---- *)

let test_nfs_stale_read_under_concurrent_sharing () =
  (* concurrent write-sharing inside the attribute cache's 3 s minimum
     timeout: unmodified NFS serves stale data (Section 2.1) *)
  run_sim (fun e ->
      let w = make_world e in
      let m1 = (mount w Stack.Nfs "c1").mounts in
      let m2 = (mount w Stack.Nfs "c2").mounts in
      let stamp1 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/f" in
      ignore (Vfs.Fileio.write ~stamp:stamp1 fd ~len:4096);
      Vfs.Fileio.close fd;
      (* reader opens and holds the file open, caching block 0 *)
      let rfd = Vfs.Fileio.openf m2 "/f" Vfs.Fs.Read_only in
      ignore (Vfs.Fileio.read rfd ~len:4096);
      (* writer updates while the reader still has it open *)
      let stamp2 = Vfs.Stamp.fresh () in
      let wfd = Vfs.Fileio.openf m1 "/f" Vfs.Fs.Write_only in
      ignore (Vfs.Fileio.write ~stamp:stamp2 wfd ~len:4096);
      Vfs.Fileio.close wfd;
      Sim.Engine.sleep e 2.0;
      (* reader re-reads its cached block through the fd it holds open:
         no lookup, no fresh attributes, so the data is STALE *)
      Vfs.Fileio.seek rfd 0;
      let observed = Vfs.Fileio.read rfd ~len:4096 in
      Vfs.Fileio.close rfd;
      (match observed with
      | (s, _) :: _ ->
          Alcotest.(check int) "NFS reader sees stale data" stamp1 s
      | [] -> Alcotest.fail "no data");
      ignore w)

let test_snfs_consistent_under_concurrent_sharing () =
  (* same scenario under SNFS: the second open triggers a callback and
     disables caching, so the reader sees fresh data *)
  counted (fun count e ->
      let w = make_world e in
      let m1 = (mount w Stack.Snfs "c1").mounts in
      let m2 = (mount w Stack.Snfs "c2").mounts in
      let stamp1 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/f" in
      ignore (Vfs.Fileio.write ~stamp:stamp1 fd ~len:4096);
      Vfs.Fileio.close fd;
      let rfd = Vfs.Fileio.openf m2 "/f" Vfs.Fs.Read_only in
      ignore (Vfs.Fileio.read rfd ~len:4096);
      (* client 1 opens for write: write-sharing begins; client 2 gets
         an invalidate callback *)
      let stamp2 = Vfs.Stamp.fresh () in
      let wfd = Vfs.Fileio.openf m1 "/f" Vfs.Fs.Write_only in
      ignore (Vfs.Fileio.write ~stamp:stamp2 wfd ~len:4096);
      (* reader reads again while the writer still has it open: every
         read now goes to the server, where the write-through landed *)
      Sim.Engine.sleep e 0.5;
      let observed = ref [] in
      let fd2 = Vfs.Fileio.openf m2 "/f" Vfs.Fs.Read_only in
      observed := Vfs.Fileio.read fd2 ~len:4096;
      Vfs.Fileio.close fd2;
      (match !observed with
      | (s, _) :: _ ->
          Alcotest.(check int) "SNFS reader sees fresh data" stamp2 s
      | [] -> Alcotest.fail "no data");
      Alcotest.(check bool) "callback was served" true
        (count ~labels:(host "c2") "snfs_callbacks_served_total" > 0);
      Vfs.Fileio.close wfd;
      Vfs.Fileio.close rfd)

let test_rfs_invalidate_on_write () =
  counted (fun count e ->
      let w = make_world e in
      let m1 = (mount w Stack.Rfs "c1").mounts in
      let m2 = (mount w Stack.Rfs "c2").mounts in
      let stamp1 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/f" in
      ignore (Vfs.Fileio.write ~stamp:stamp1 fd ~len:4096);
      Vfs.Fileio.close fd;
      let rfd = Vfs.Fileio.openf m2 "/f" Vfs.Fs.Read_only in
      ignore (Vfs.Fileio.read rfd ~len:4096);
      Vfs.Fileio.close rfd;
      (* writer writes through; the server invalidates reader's cache *)
      let stamp2 = Vfs.Stamp.fresh () in
      let wfd = Vfs.Fileio.openf m1 "/f" Vfs.Fs.Write_only in
      ignore (Vfs.Fileio.write ~stamp:stamp2 wfd ~len:4096);
      Vfs.Fileio.close wfd;
      Sim.Engine.sleep e 1.0;
      Alcotest.(check bool) "invalidation delivered" true
        (count ~labels:(host "c2") "rfs_invalidations_served_total" > 0);
      let fd2 = Vfs.Fileio.openf m2 "/f" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd2 ~len:4096 in
      Vfs.Fileio.close fd2;
      (match observed with
      | (s, _) :: _ -> Alcotest.(check int) "fresh after invalidate" stamp2 s
      | [] -> Alcotest.fail "no data"))

let test_snfs_write_aversion () =
  (* temporary file deleted before any write-back: no data ever reaches
     the server (Section 5.4) *)
  counted (fun count e ->
      let w = make_world e in
      let c = mount w Stack.Snfs "c1" in
      let m = c.mounts in
      let server = snfs_server w in
      let writes_before =
        Stats.Counter.get (Snfs.Snfs_server.counters server) "write"
      in
      let fd = Vfs.Fileio.creat m "/tmpfile" in
      ignore (Vfs.Fileio.write fd ~len:65536);
      Vfs.Fileio.close fd;
      Sim.Engine.sleep e 2.0;
      Vfs.Fileio.unlink m "/tmpfile";
      Sim.Engine.sleep e 60.0;
      let writes_after =
        Stats.Counter.get (Snfs.Snfs_server.counters server) "write"
      in
      Alcotest.(check int) "no write RPCs at all" writes_before writes_after;
      let cache = Blockcache.Cache.name c.stack.cache in
      Alcotest.(check bool) "writes averted counted" true
        (count ~labels:[ ("cache", cache) ] "cache_writes_averted_total" >= 16))

let test_nfs_cannot_avert_writes () =
  run_sim (fun e ->
      let w = make_world e in
      let m = (mount w Stack.Nfs "c1").mounts in
      let service = service w Stack.Nfs in
      let fd = Vfs.Fileio.creat m "/tmpfile" in
      ignore (Vfs.Fileio.write fd ~len:65536);
      Vfs.Fileio.close fd;
      Vfs.Fileio.unlink m "/tmpfile";
      Alcotest.(check int) "all 16 blocks written through" 16
        (calls service "write"))

let test_snfs_syncer_writes_back () =
  run_sim (fun e ->
      let w = make_world e in
      let c = mount w Stack.Snfs "c1" in
      let m = c.mounts in
      Snfs.Snfs_client.start_syncer (snfs_client c) ~interval:30.0;
      let server = snfs_server w in
      let fd = Vfs.Fileio.creat m "/data" in
      ignore (Vfs.Fileio.write fd ~len:16384);
      Vfs.Fileio.close fd;
      Alcotest.(check int) "nothing written yet" 0
        (Stats.Counter.get (Snfs.Snfs_server.counters server) "write");
      Sim.Engine.sleep e 45.0;
      Alcotest.(check int) "syncer pushed all 4 blocks" 4
        (Stats.Counter.get (Snfs.Snfs_server.counters server) "write"))

let test_snfs_closed_dirty_callback_on_other_reader () =
  (* writer closes leaving dirty blocks; when another client opens, the
     server calls the last writer back and the reader sees the data *)
  run_sim (fun e ->
      let w = make_world e in
      let c1 = mount w Stack.Snfs "c1" in
      let m1 = c1.mounts in
      let m2 = (mount w Stack.Snfs "c2").mounts in
      let server = snfs_server w in
      let stamp = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/dirtyfile" in
      ignore (Vfs.Fileio.write ~stamp fd ~len:8192);
      Vfs.Fileio.close fd;
      (* dirty blocks still at client 1 *)
      Alcotest.(check int) "dirty at client" 2
        (Blockcache.Cache.dirty_count c1.stack.cache
           ~file:(Vfs.Fileio.stat m1 "/dirtyfile").Localfs.ino);
      let fd2 = Vfs.Fileio.openf m2 "/dirtyfile" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd2 ~len:8192 in
      Vfs.Fileio.close fd2;
      (match observed with
      | (s, _) :: _ -> Alcotest.(check int) "reader got written-back data" stamp s
      | [] -> Alcotest.fail "no data");
      Alcotest.(check bool) "server issued a callback" true
        (Snfs.Snfs_server.callbacks_sent server > 0))

let test_snfs_version_revalidation_avoids_rereads () =
  (* close then reopen: cache revalidates by version, no data re-read *)
  run_sim (fun e ->
      let w = make_world e in
      let m = (mount w Stack.Snfs "c1").mounts in
      let server = snfs_server w in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:16384);
      Vfs.Fileio.close fd;
      let reads_before =
        Stats.Counter.get (Snfs.Snfs_server.counters server) "read"
      in
      ignore (Vfs.Fileio.read_file m "/f");
      let reads_after =
        Stats.Counter.get (Snfs.Snfs_server.counters server) "read"
      in
      Alcotest.(check int) "no read RPCs on reopen" reads_before reads_after)

let test_nfs_bug_forces_rereads () =
  run_sim (fun e ->
      let w = make_world e in
      let m = (mount w Stack.Nfs "c1").mounts in
      let service = service w Stack.Nfs in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:16384);
      Vfs.Fileio.close fd;
      let reads_before = calls service "read" in
      ignore (Vfs.Fileio.read_file m "/f");
      let reads_after = calls service "read" in
      Alcotest.(check bool) "invalidate-on-close forces re-reads" true
        (reads_after - reads_before >= 4))

let test_nfs_fixed_client_keeps_cache () =
  run_sim (fun e ->
      let w = make_world e in
      let protocol =
        Stack.Nfs_proto
          { Nfs.Nfs_client.default_config with invalidate_on_close = false }
      in
      let m = (mount ~protocol w Stack.Nfs "c1").mounts in
      let service = service w Stack.Nfs in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:16384);
      Vfs.Fileio.close fd;
      let reads_before = calls service "read" in
      ignore (Vfs.Fileio.read_file m "/f");
      let reads_after = calls service "read" in
      Alcotest.(check int) "fixed client reads from cache" reads_before
        reads_after)

let test_snfs_delayed_close () =
  counted (fun count e ->
      let w = make_world e in
      let protocol =
        Stack.Snfs_proto
          {
            Snfs.Snfs_client.default_config with
            delayed_close = true;
            delayed_close_timeout = 60.0;
          }
      in
      let m = (mount ~protocol w Stack.Snfs "c1").mounts in
      let server = snfs_server w in
      let fd = Vfs.Fileio.creat m "/header.h" in
      ignore (Vfs.Fileio.write fd ~len:4096);
      Vfs.Fileio.close fd;
      let opens_before =
        Stats.Counter.get (Snfs.Snfs_server.counters server) "open"
      in
      (* reopen the file repeatedly, same mode pattern *)
      for _ = 1 to 5 do
        let fd = Vfs.Fileio.openf m "/header.h" Vfs.Fs.Write_only in
        ignore (Vfs.Fileio.write fd ~len:100);
        Vfs.Fileio.close fd
      done;
      let opens_after =
        Stats.Counter.get (Snfs.Snfs_server.counters server) "open"
      in
      Alcotest.(check int) "no open RPCs for reopens" opens_before opens_after;
      Alcotest.(check int) "all served locally" 5
        (count ~labels:(host "c1") "snfs_delayed_close_hits_total");
      (* the idle timer eventually sends the close *)
      Sim.Engine.sleep e 120.0;
      Alcotest.(check bool) "spontaneous close arrived" true
        (Stats.Counter.get (Snfs.Snfs_server.counters server) "close" > 0))

let test_snfs_crash_recovery () =
  run_sim (fun e ->
      let w = make_world e in
      let c1 = mount w Stack.Snfs "c1" in
      let c2 = mount w Stack.Snfs "c2" in
      let m1 = c1.mounts and m2 = c2.mounts in
      let server = snfs_server w in
      (* each keepalive learns the boot epoch, and replays its client's
         state once a ping sees a new one *)
      List.iter
        (fun c ->
          Snfs.Snfs_client.start_keepalive (snfs_client c) ~interval:1.0)
        [ c1; c2 ];
      (* build interesting state: c1 writes (open), c2 reads another *)
      ignore (Vfs.Fileio.creat m1 "/a" |> fun fd ->
              ignore (Vfs.Fileio.write fd ~len:4096);
              Vfs.Fileio.close fd);
      ignore (Vfs.Fileio.creat m2 "/b" |> fun fd ->
              ignore (Vfs.Fileio.write fd ~len:4096);
              Vfs.Fileio.close fd);
      let fd_a = Vfs.Fileio.openf m1 "/a" Vfs.Fs.Read_write in
      ignore (Vfs.Fileio.write fd_a ~len:4096);
      let fd_b = Vfs.Fileio.openf m2 "/b" Vfs.Fs.Read_only in
      Sim.Engine.sleep e 1.5;
      let table_before =
        Spritely.State_table.to_reports (Snfs.Snfs_server.state_table server)
      in
      Alcotest.(check bool) "server holds state" true
        (List.length table_before > 0);
      (* crash and reboot the server; clients replay their state *)
      Netsim.Net.Host.crash w.cluster.server_host;
      Sim.Engine.sleep e 5.0;
      Netsim.Net.Host.reboot w.cluster.server_host;
      (* a ping triggers the service restart hook that clears the
         table; then the clients re-send their opens *)
      Sim.Engine.sleep e 10.0;
      let table_after =
        Spritely.State_table.to_reports (Snfs.Snfs_server.state_table server)
      in
      (* the rebuilt table holds the same open state *)
      let open_state reports =
        List.filter_map
          (fun (r : Spritely.State_table.client_report) ->
            if r.r_readers > 0 || r.r_writers > 0 then
              Some (r.r_client, r.r_file, r.r_readers, r.r_writers)
            else None)
          reports
        |> List.sort compare
      in
      Alcotest.(check bool) "open state reconstructed" true
        (open_state table_before = open_state table_after);
      (* and the system still works *)
      ignore (Vfs.Fileio.write fd_a ~len:4096);
      Vfs.Fileio.close fd_a;
      Vfs.Fileio.close fd_b)

let test_snfs_dead_client_callback () =
  (* a client holding dirty blocks crashes; an open by another client
     times out the callback, reaps the dead client, and proceeds. No
     laundromat runs: the failed callback alone walks the client from
     Active through Courtesy and Expirable to reaped. *)
  counted (fun count e ->
      let w = make_world e in
      let { Cluster.host = h1; mounts = m1; _ } = mount w Stack.Snfs "c1" in
      let m2 = (mount w Stack.Snfs "c2").mounts in
      let server = snfs_server w in
      let fd = Vfs.Fileio.creat m1 "/doomed" in
      ignore (Vfs.Fileio.write fd ~len:8192);
      Vfs.Fileio.close fd;
      Netsim.Net.Host.crash h1;
      (* client 2 opens: the callback to c1 fails, but the open succeeds *)
      let fd2 = Vfs.Fileio.openf m2 "/doomed" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd2 ~len:8192 in
      Vfs.Fileio.close fd2;
      Alcotest.(check bool) "open survived dead client" true
        (List.length observed >= 0);
      Alcotest.(check bool) "callback failure recorded" true
        (count "snfs_callbacks_failed_total" > 0);
      (* the data the dead client never wrote back is lost; the server
         knows the file may be inconsistent *)
      let attrs = Vfs.Fileio.stat m2 "/doomed" in
      Alcotest.(check bool) "flagged inconsistent" true
        (Spritely.State_table.was_inconsistent
           (Snfs.Snfs_server.state_table server)
           ~file:attrs.Localfs.ino);
      Alcotest.(check int) "dead client reaped" 1
        (Snfs.Snfs_server.clients_reaped server);
      let stats = Snfs.Snfs_server.lifecycle_stats server in
      Alcotest.(check int) "reaped as Expirable" 1
        stats.Snfs.Snfs_server.reaped_expirable;
      Alcotest.(check int) "not from Courtesy" 0
        stats.Snfs.Snfs_server.reaped_courtesy;
      Alcotest.(check bool) "reaped client left the ledger" true
        (Snfs.Snfs_server.client_state server
           ~client:(Netsim.Net.Host.addr h1)
        = Spritely.Lifecycle.Active))

let test_snfs_relinquish_reclaims_delayed_closes () =
  (* Section 6.2's worry: delayed-close clients fill the state table
     with apparently-open files. The server's relinquish callback asks
     them to let go, and the blocked open then succeeds. *)
  run_sim (fun e ->
      let w = make_world e in
      let protocol =
        Stack.Snfs_proto
          {
            Snfs.Snfs_client.default_config with
            delayed_close = true;
            delayed_close_timeout = 10_000.0 (* never spontaneous *);
          }
      in
      let m = (mount ~protocol w Stack.Snfs "dc").mounts in
      let server = snfs_server w in
      let max_entries = Spritely.State_table.max_entries in
      (* touch one file more than the table holds: their delayed closes
         fill it *)
      let files = max_entries + 1 in
      for i = 1 to files do
        Vfs.Fileio.write_file m (Printf.sprintf "/f%d" i) ~bytes:100
      done;
      (* every write_file is open+close; the closes were withheld, so
         the last file needed a relinquish to find a slot — and all the
         writes succeeded *)
      for i = 1 to files do
        Alcotest.(check bool)
          (Printf.sprintf "f%d exists" i)
          true
          (Vfs.Fileio.exists m (Printf.sprintf "/f%d" i))
      done;
      let table = Snfs.Snfs_server.state_table server in
      Alcotest.(check bool) "table stayed within bounds" true
        (Spritely.State_table.entry_count table <= max_entries);
      Alcotest.(check bool) "server issued relinquish callbacks" true
        (Snfs.Snfs_server.callbacks_sent server > 0))

let test_kent_block_granularity_sharing () =
  (* two clients write-share ONE FILE but different blocks: under
     Kent's protocol both keep caching (SNFS would have disabled both
     caches for the whole file) *)
  counted (fun count e ->
      let w = make_world e in
      let m1 = (mount w Stack.Kent "k1").mounts in
      let m2 = (mount w Stack.Kent "k2").mounts in
      let service = service w Stack.Kent in
      (* client 1 creates a 4-block file *)
      let fd = Vfs.Fileio.creat m1 "/shared" in
      ignore (Vfs.Fileio.write fd ~len:(4 * 4096));
      Vfs.Fileio.close fd;
      (* both clients open it and write disjoint blocks repeatedly *)
      let fd1 = Vfs.Fileio.openf m1 "/shared" Vfs.Fs.Read_write in
      let fd2 = Vfs.Fileio.openf m2 "/shared" Vfs.Fs.Read_write in
      (* first round: client 2 must acquire block 2 (one RPC, and one
         recall write-back of client 1's dirty copy); client 1 already
         owns block 0 from creating the file *)
      Vfs.Fileio.seek fd1 0;
      ignore (Vfs.Fileio.write fd1 ~len:4096);
      Vfs.Fileio.seek fd2 (2 * 4096);
      ignore (Vfs.Fileio.write fd2 ~len:4096);
      Alcotest.(check int) "client 1 needed no new acquire" 4
        (count ~labels:(host "k1") "kent_acquires_total");
      Alcotest.(check int) "client 2 acquired its block once" 1
        (count ~labels:(host "k2") "kent_acquires_total");
      (* steady state: both write their own blocks with NO traffic at
         all — this is the case SNFS handles by disabling caching *)
      let writes_before =
        calls service "write"
      in
      for _ = 1 to 10 do
        Vfs.Fileio.seek fd1 0;
        ignore (Vfs.Fileio.write fd1 ~len:4096);
        Vfs.Fileio.seek fd2 (2 * 4096);
        ignore (Vfs.Fileio.write fd2 ~len:4096)
      done;
      Alcotest.(check int) "steady state: zero write RPCs" writes_before
        (calls service "write");
      Alcotest.(check int) "steady state: no more acquires" 1
        (count ~labels:(host "k2") "kent_acquires_total");
      Vfs.Fileio.close fd1;
      Vfs.Fileio.close fd2)

let test_kent_read_recalls_dirty_block () =
  counted (fun count e ->
      let w = make_world e in
      let m1 = (mount w Stack.Kent "k1").mounts in
      let m2 = (mount w Stack.Kent "k2").mounts in
      (* writer holds a dirty owned block *)
      let stamp = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/doc" in
      ignore (Vfs.Fileio.write ~stamp fd ~len:4096);
      Vfs.Fileio.close fd;
      (* a reader on another client: the server recalls the block *)
      let observed = ref [] in
      let fd2 = Vfs.Fileio.openf m2 "/doc" Vfs.Fs.Read_only in
      observed := Vfs.Fileio.read fd2 ~len:4096;
      Vfs.Fileio.close fd2;
      (match !observed with
      | (s, _) :: _ -> Alcotest.(check int) "fresh data via recall" stamp s
      | [] -> Alcotest.fail "no data");
      Alcotest.(check bool) "a recall happened" true
        (count "kent_recalls_sent_total" > 0))

let test_snfs_recovery_grace_period () =
  (* Section 2.4: "the consistency state of the file cannot change
     while the server is down, or until the server is willing to allow
     it to change." A rebooted server with a grace period refuses opens
     from unrecovered clients, while recovered clients proceed. *)
  run_sim (fun e ->
      (* a cluster of its own, whose server has a grace period *)
      let cluster = Cluster.create e in
      let server =
        Cluster.serve ~recovery_grace:20.0 cluster ~fsid:9 Stack.Snfs
      in
      let server_host = cluster.server_host in
      let client_on name =
        Cluster.mount cluster server ~host:name ~name (Stack.default Stack.Snfs)
      in
      let c1 = client_on "g1" in
      let m1 = c1.mounts and m2 = (client_on "g2").mounts in
      Snfs.Snfs_client.start_keepalive (snfs_client c1) ~interval:1.0;
      Vfs.Fileio.write_file m1 "/a" ~bytes:4096;
      Vfs.Fileio.write_file m2 "/b" ~bytes:4096;
      Sim.Engine.sleep e 1.5;
      (* server reboots with a 20 s grace period *)
      Netsim.Net.Host.crash server_host;
      Sim.Engine.sleep e 2.0;
      Netsim.Net.Host.reboot server_host;
      (* client 1's keepalive sees the new boot epoch and recovers at
         once; it may work during grace *)
      Sim.Engine.sleep e 3.0;
      let t0 = Sim.Engine.now e in
      ignore (Vfs.Fileio.read_file m1 "/a");
      Alcotest.(check bool) "recovered client not delayed" true
        (Sim.Engine.now e -. t0 < 5.0);
      (* client 2 has not recovered: its open blocks until grace ends *)
      let t0 = Sim.Engine.now e in
      ignore (Vfs.Fileio.read_file m2 "/b");
      let waited = Sim.Engine.now e -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "unrecovered client waited (%.1f s)" waited)
        true (waited > 5.0))

let test_snfs_client_reaper () =
  (* a client crashes without any pending callback to expose it; the
     server's keepalive-based reaper notices and reclaims its state *)
  run_sim (fun e ->
      let w = make_world e in
      let server = snfs_server w in
      Snfs.Snfs_server.start_laundromat ~lease:30.0 ~courtesy_lifetime:0.0
        server ~interval:20.0;
      let { Cluster.host = h1; mounts = m1; _ } = mount w Stack.Snfs "c1" in
      let fd = Vfs.Fileio.creat m1 "/held-open" in
      ignore (Vfs.Fileio.write fd ~len:4096);
      (* fd deliberately left open; the client dies silently *)
      let table = Snfs.Snfs_server.state_table server in
      Alcotest.(check int) "state held" 1
        (Spritely.State_table.entry_count table);
      Netsim.Net.Host.crash h1;
      Sim.Engine.sleep e 200.0;
      Alcotest.(check bool) "client reaped" true
        (Snfs.Snfs_server.clients_reaped server > 0);
      Alcotest.(check (list int)) "no open state left" []
        (List.concat_map
           (fun file ->
             List.map (fun (c, _, _) -> c)
               (Spritely.State_table.openers table ~file))
           (Spritely.State_table.files table));
      (* a live-but-quiet client is probed, answers, and is kept *)
      let m2 = (mount w Stack.Snfs "c2").mounts in
      let fd2 = Vfs.Fileio.openf m2 "/held-open" Vfs.Fs.Read_only in
      Sim.Engine.sleep e 200.0;
      Alcotest.(check int) "live client not reaped" 1
        (Snfs.Snfs_server.clients_reaped server);
      Vfs.Fileio.close fd2)

(* ---- the one serve site and the one callback channel ---- *)

(* Every server program and every client callback program answers a
   procedure it does not know with a decoded [Error Stale], and an
   SNFS client answers the laundromat's ping with its boot epoch. *)
let test_unknown_procedure_is_stale () =
  run_sim (fun e ->
      let w = make_world e in
      let { Cluster.net; rpc; server_host; server_fs; _ } = w.cluster in
      let hybrid_host = Netsim.Net.Host.create net "hybrid" in
      ignore (Snfs.Hybrid_server.serve rpc hybrid_host ~fsid:5 server_fs);
      let snfs_host = (mount w Stack.Snfs "snfs-c").host in
      let rfs_host = (mount w Stack.Rfs "rfs-c").host in
      let kent_host = (mount w Stack.Kent "kent-c").host in
      let prober = Netsim.Net.Host.create net "prober" in
      let call dst ~prog ~proc =
        Netsim.Rpc.call rpc ~src:prober ~dst ~prog ~proc Bytes.empty
      in
      (* the whole reply is the status: nothing else is decoded or sent *)
      let stale =
        let e = Xdr.Enc.create () in
        Nfs.Wire.enc_status e (Error Localfs.Stale);
        Xdr.Enc.to_bytes e
      in
      List.iter
        (fun (label, dst, prog) ->
          Alcotest.(check bool) (label ^ ": just Error Stale") true
            (Bytes.equal stale (call dst ~prog ~proc:"no-such-proc")))
        [
          ("nfs server", server_host, "nfs");
          ("snfs server", server_host, "snfs");
          ("rfs server", server_host, "rfs");
          ("kent server", server_host, "kent");
          ("hybrid server, NFS half", hybrid_host, "nfs");
          ("snfs client", snfs_host, "snfs_cb.2");
          ("rfs client", rfs_host, "rfs_cb.3");
          ("kent client", kent_host, "kent_cb.4");
        ];
      let d =
        Xdr.Dec.of_bytes
          (call snfs_host ~prog:"snfs_cb.2" ~proc:Nfs.Wire.(Proc.ping.name))
      in
      Alcotest.(check bool) "snfs client ping: Ok" true
        (Nfs.Wire.dec_status d = Ok ());
      Alcotest.(check int) "snfs client ping: its boot epoch"
        (Netsim.Net.Host.boot_epoch snfs_host)
        (Xdr.Dec.uint32 d))

(* ---- the message formats ---- *)

(* One message format with a generator of its values; or a procedure
   that only Wire itself names, reached through its client stub: the
   arguments the stub must send, an encoder of its result, and a
   generator of (arguments, result) pairs. *)
type format =
  | Format : string * 'a Xdr.codec * 'a QCheck.Gen.t -> format
  | Stub :
      string
      * (Nfs.Wire.call -> 'a -> 'r)
      * 'a Xdr.codec
      * (Xdr.Enc.t -> 'r -> unit)
      * ('a * 'r) QCheck.Gen.t
      -> format

(* a value of one format *)
type sample =
  | Sample : string * 'a Xdr.codec * 'a -> sample
  | Stubbed :
      string
      * (Nfs.Wire.call -> 'a -> 'r)
      * 'a Xdr.codec
      * (Xdr.Enc.t -> 'r -> unit)
      * ('a * 'r)
      -> sample

let formats =
  let open QCheck.Gen in
  let u32 = int_bound 0xFFFFFFFF in
  let fh =
    map3 (fun fsid ino gen -> { Nfs.Wire.fsid; ino; gen }) u32 u32 u32
  in
  let attrs =
    let time = float_bound_inclusive 1e9 in
    map
      (fun ((ftype, ino, gen), (size, nlink), (mtime, ctime)) ->
        { Localfs.ftype; ino; gen; size; nlink; mtime; ctime })
      (triple
         (triple (oneofl [ Localfs.File; Localfs.Dir ]) u32 u32)
         (pair u32 u32) (pair time time))
  in
  let name = string_size ~gen:printable (int_bound 12) in
  let open_reply =
    map
      (fun ((cache_enabled, version, prev_version), attrs) ->
        { Nfs.Wire.cache_enabled; version; prev_version; attrs })
      (pair (triple bool u32 u32) attrs)
  in
  let callback =
    map
      (fun ((cb_fh, cb_writeback), (cb_invalidate, cb_ctx)) ->
        { Nfs.Wire.cb_fh; cb_writeback; cb_invalidate; cb_ctx })
      (pair (pair fh bool) (pair bool int))
  in
  let report = pair (triple u32 u32 u32) (triple bool bool u32) in
  let proc (type a r) (p : (a, r) Nfs.Wire.procedure) (args : a t) (res : r t) =
    [
      Format (p.name ^ " arguments", p.args, args);
      Format (p.name ^ " result", p.res, res);
    ]
  in
  let stub label f args res gen = [ Stub (label, f, args, res, gen) ] in
  let dir_name = Xdr.pair Nfs.Wire.fh_codec Xdr.string in
  let module P = Nfs.Wire.Proc in
  List.concat
    [
      proc P.lookup (pair fh name) (pair fh attrs);
      proc P.create (pair fh name) (pair fh attrs);
      stub "mkdir"
        (fun call (dir, n) -> Nfs.Wire.mkdir call ~dir n)
        dir_name
        (fun e (fh, a) ->
          Nfs.Wire.fh_codec.enc e fh;
          Nfs.Wire.enc_attrs e a)
        (pair (pair fh name) (pair fh attrs));
      proc P.getattr fh attrs;
      proc P.setattr (pair fh u32) attrs;
      proc P.read (pair fh u32) (pair u32 u32);
      proc P.write (pair fh (triple u32 u32 u32)) attrs;
      proc P.remove (pair fh name) unit;
      stub "rmdir"
        (fun call (dir, n) -> Nfs.Wire.rmdir call ~dir n)
        dir_name
        (fun _ () -> ())
        (pair (pair fh name) unit);
      stub "rename"
        (fun call ((fromdir, f), (todir, t)) ->
          Nfs.Wire.rename call ~fromdir f ~todir t)
        (Xdr.pair dir_name dir_name)
        (fun _ () -> ())
        (pair (pair (pair fh name) (pair fh name)) unit);
      stub "readdir" Nfs.Wire.readdir Nfs.Wire.fh_codec
        (Xdr.list Xdr.string).enc
        (pair fh (small_list name));
      proc P.snfs_open (pair fh bool) open_reply;
      proc P.rfs_open (pair fh bool) (pair u32 attrs);
      proc P.close (pair fh bool) unit;
      proc P.ping unit u32;
      proc P.reopen (small_list report) unit;
      proc P.callback callback unit;
      proc Kentfs.Kent_server.acquire (pair (pair fh u32) u32) unit;
      proc Kentfs.Kent_server.callback
        (pair (pair fh u32) (triple bool bool int))
        unit;
    ]

let encode codec x =
  let e = Xdr.Enc.create () in
  codec.Xdr.enc e x;
  Xdr.Enc.to_bytes e

let with_byte b = Bytes.cat b (Bytes.make 1 '\000')

(* [decodes label dec b] checks that [dec] reads all of [b] back, and
   that every proper prefix of [b], and [b] with a byte more, fails
   with [Xdr.Error] and no other exception *)
let decodes label dec b =
  let back = dec b in
  List.iter
    (fun (what, b) ->
      match dec b with
      | _ -> QCheck.Test.fail_reportf "%s: %s decodes" label what
      | exception Xdr.Error _ -> ())
    (("a trailing byte", with_byte b)
    :: List.init (Bytes.length b) (fun n ->
           (Printf.sprintf "its %d-byte prefix" n, Bytes.sub b 0 n)));
  back

(* Every procedure's arguments and result: decoding an encoding gives
   the value back and leaves no byte over, and every proper prefix of
   an encoding fails with [Xdr.Error] and no other exception. A
   procedure reached through its stub sends its name and its arguments
   in the stated format, and reads back its result from a reply, but
   not from a prefix of it or from it with a byte more. *)
let prop_message_formats =
  let gen =
    QCheck.Gen.flatten_l
      (List.map
         (function
           | Format (label, codec, g) ->
               QCheck.Gen.map (fun x -> Sample (label, codec, x)) g
           | Stub (label, f, args, res, g) ->
               QCheck.Gen.map (fun x -> Stubbed (label, f, args, res, x)) g)
         formats)
  in
  let print samples =
    String.concat "\n"
      (List.map
         (fun sample ->
           let label, b =
             match sample with
             | Sample (label, codec, x) -> (label, encode codec x)
             | Stubbed (label, _, codec, _, (x, _)) -> (label, encode codec x)
           in
           label ^ ": " ^ String.escaped (Bytes.to_string b))
         samples)
  in
  QCheck.Test.make ~name:"every procedure's formats round-trip" ~count:200
    (QCheck.make ~print gen)
    (List.for_all (function
      | Sample (label, codec, x) ->
          let dec b =
            let d = Xdr.Dec.of_bytes b in
            let v = codec.Xdr.dec d in
            Xdr.Dec.check_done d;
            v
          in
          if decodes label dec (encode codec x) <> x then
            QCheck.Test.fail_reportf "%s: decodes to another value" label;
          true
      | Stubbed (label, f, args, res, (a, r)) ->
          let reply =
            let e = Xdr.Enc.create () in
            Nfs.Wire.enc_status e (Ok ());
            res e r;
            Xdr.Enc.to_bytes e
          in
          let sent = ref [] in
          let call reply ~proc ?bulk:_ b =
            sent := (proc, b) :: !sent;
            reply
          in
          if decodes label (fun reply -> f (call reply) a) reply <> r then
            QCheck.Test.fail_reportf "%s: reads back another result" label;
          if
            List.exists
              (fun (proc, b) ->
                proc <> label || not (Bytes.equal b (encode args a)))
              !sent
          then QCheck.Test.fail_reportf "%s: sent other arguments" label;
          true))

(* Trailing bytes are refused at the trust boundary: a served entry
   given its arguments and a byte more raises [Xdr.Error] (a stub
   handed its reply and a byte more is the property's case). *)
let test_trailing_byte_refused () =
  let caller =
    Netsim.Net.Host.create (Netsim.Net.create (Sim.Engine.create ()) ()) "c"
  in
  let p = Nfs.Wire.Proc.remove in
  let _, handler = Nfs.Wire.serves p (fun ~caller:_ ~ctx:_ _ -> ()) in
  let serve b =
    ignore (handler ~caller ~ctx:Obs.Causal.none (Xdr.Dec.of_bytes b))
  in
  let args = encode p.args ({ Nfs.Wire.fsid = 1; ino = 2; gen = 3 }, "f") in
  serve args;
  Alcotest.check_raises "a byte more" (Xdr.Error "Dec: 1 trailing bytes")
    (fun () -> serve (with_byte args))

let () =
  let conformance kind =
    ( Stack.kind_name kind ^ " conformance",
      [
        Alcotest.test_case "basic ops" `Quick (basic_ops_roundtrip kind);
        Alcotest.test_case "namespace and fsync" `Quick
          (namespace_and_fsync kind);
        Alcotest.test_case "sequential write sharing" `Quick
          (sequential_write_sharing kind);
      ] )
  in
  Alcotest.run "protocols"
    [
      conformance Stack.Nfs;
      conformance Stack.Snfs;
      conformance Stack.Rfs;
      conformance Stack.Kent;
      ( "consistency",
        [
          Alcotest.test_case "NFS stale concurrent read" `Quick
            test_nfs_stale_read_under_concurrent_sharing;
          Alcotest.test_case "SNFS consistent concurrent read" `Quick
            test_snfs_consistent_under_concurrent_sharing;
          Alcotest.test_case "RFS invalidate on write" `Quick
            test_rfs_invalidate_on_write;
        ] );
      ( "delayed write",
        [
          Alcotest.test_case "SNFS write aversion" `Quick
            test_snfs_write_aversion;
          Alcotest.test_case "NFS cannot avert" `Quick
            test_nfs_cannot_avert_writes;
          Alcotest.test_case "SNFS syncer" `Quick test_snfs_syncer_writes_back;
          Alcotest.test_case "closed-dirty callback" `Quick
            test_snfs_closed_dirty_callback_on_other_reader;
        ] );
      ( "caching",
        [
          Alcotest.test_case "SNFS revalidation" `Quick
            test_snfs_version_revalidation_avoids_rereads;
          Alcotest.test_case "NFS bug re-reads" `Quick test_nfs_bug_forces_rereads;
          Alcotest.test_case "fixed NFS keeps cache" `Quick
            test_nfs_fixed_client_keeps_cache;
          Alcotest.test_case "delayed close" `Quick test_snfs_delayed_close;
        ] );
      ( "kent block protocol",
        [
          Alcotest.test_case "disjoint-block sharing" `Quick
            test_kent_block_granularity_sharing;
          Alcotest.test_case "read recalls dirty block" `Quick
            test_kent_read_recalls_dirty_block;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash recovery" `Quick test_snfs_crash_recovery;
          Alcotest.test_case "dead client callback" `Quick
            test_snfs_dead_client_callback;
          Alcotest.test_case "client reaper" `Quick test_snfs_client_reaper;
          Alcotest.test_case "relinquish on table full" `Quick
            test_snfs_relinquish_reclaims_delayed_closes;
          Alcotest.test_case "recovery grace period" `Quick
            test_snfs_recovery_grace_period;
        ] );
      ( "rpc service",
        [
          Alcotest.test_case "unknown procedure is Stale" `Quick
            test_unknown_procedure_is_stale;
          QCheck_alcotest.to_alcotest prop_message_formats;
          Alcotest.test_case "trailing byte refused" `Quick
            test_trailing_byte_refused;
        ] );
    ]
