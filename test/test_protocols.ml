(* End-to-end integration tests: NFS, SNFS, RFS and Kent clients and servers
   over the simulated network, exercised through the GFS system-call
   layer. Covers basic correctness on every protocol, the consistency
   differences the paper is about, callbacks, write-aversion, and crash
   recovery. *)

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

(* [run_sim] under a fresh metrics registry, where caches, clients and
   servers count their statistics: [f] also gets [count], the run's
   count so far of one registry counter, summed over every label set
   that contains [labels] (default: all of them) *)
let counted f =
  let m = Obs.Metrics.create () in
  let count ?(labels = []) name =
    List.fold_left
      (fun acc (ls, n) ->
        if List.for_all (fun l -> List.mem l ls) labels then acc + n else acc)
      0
      (Obs.Metrics.counters_with m name)
  in
  Obs.Metrics.with_metrics m (fun () -> run_sim (f count))

(* the server's count so far of one procedure's calls *)
let calls service proc = Stats.Counter.get (Netsim.Rpc.counters service) proc

let host h = [ ("host", h) ]

type world = {
  engine : Sim.Engine.t;
  net : Netsim.Net.t;
  rpc : Netsim.Rpc.t;
  server_host : Netsim.Net.Host.t;
  server_fs : Localfs.t;
  server_disk : Diskm.Disk.t;
  nfs_server : Nfs.Nfs_server.t;
  snfs_server : Snfs.Snfs_server.t;
  rfs_server : Rfs.Rfs_server.t;
  kent_server : Kentfs.Kent_server.t;
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
  let nfs_server = Nfs.Nfs_server.serve rpc server_host ~fsid:1 server_fs in
  let snfs_server = Snfs.Snfs_server.serve rpc server_host ~fsid:2 server_fs in
  let rfs_server = Rfs.Rfs_server.serve rpc server_host ~fsid:3 server_fs in
  let kent_server = Kentfs.Kent_server.serve rpc server_host ~fsid:4 server_fs in
  {
    engine = e;
    net;
    rpc;
    server_host;
    server_fs;
    server_disk;
    nfs_server;
    snfs_server;
    rfs_server;
    kent_server;
  }

module Nfs_setup = struct
  let get w = w.nfs_server
end

module Snfs_setup = struct
  let get w = w.snfs_server
end

module Rfs_setup = struct
  let get w = w.rfs_server
end

module Kent_setup = struct
  let get w = w.kent_server
end

(* one client host with the protocol under test mounted at / *)
let nfs_client ?config w name =
  let host = Netsim.Net.Host.create w.net name in
  let server = Nfs_setup.get w in
  let client =
    Nfs.Nfs_client.mount w.rpc ~client:host ~server:w.server_host
      ~root:(Nfs.Nfs_server.root_fh server) ?config ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Nfs.Nfs_client.fs client);
  (host, client, mounts)

let snfs_client ?config w name =
  let host = Netsim.Net.Host.create w.net name in
  let server = Snfs_setup.get w in
  let client =
    Snfs.Snfs_client.mount w.rpc ~client:host ~server:w.server_host
      ~root:(Snfs.Snfs_server.root_fh server) ?config ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Snfs.Snfs_client.fs client);
  (host, client, mounts)

let rfs_client ?config w name =
  let host = Netsim.Net.Host.create w.net name in
  let server = Rfs_setup.get w in
  let client =
    Rfs.Rfs_client.mount w.rpc ~client:host ~server:w.server_host
      ~root:(Rfs.Rfs_server.root_fh server) ?config ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Rfs.Rfs_client.fs client);
  (host, client, mounts)

let kent_client ?config w name =
  let host = Netsim.Net.Host.create w.net name in
  let server = Kent_setup.get w in
  let client =
    Kentfs.Kent_client.mount w.rpc ~client:host ~server:w.server_host
      ~root:(Kentfs.Kent_server.root_fh server) ?config ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Kentfs.Kent_client.fs client);
  (host, client, mounts)

(* ---- generic protocol conformance, run against all four ---- *)

let basic_ops_roundtrip make_mounts () =
  run_sim (fun e ->
      let w = make_world e in
      let _, _, m = make_mounts w "c1" in
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
let namespace_and_fsync make_mounts () =
  run_sim (fun e ->
      let w = make_world e in
      let _, _, m = make_mounts w "c1" in
      let server = Vfs.Mount.create () in
      Vfs.Mount.mount server ~at:"/" (Vfs.Local_mount.make w.server_fs);
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

let sequential_write_sharing make_mounts () =
  (* writer closes before reader opens: every protocol must provide
     consistency here (Section 2.3 "sequential write-sharing") *)
  run_sim (fun e ->
      let w = make_world e in
      let _, _, m1 = make_mounts w "c1" in
      let _, _, m2 = make_mounts w "c2" in
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
  (* concurrent write-sharing with a long attribute-cache timeout:
     unmodified NFS serves stale data (Section 2.1) *)
  run_sim (fun e ->
      let w = make_world e in
      let slow_probe =
        { Nfs.Nfs_client.default_config with attr_min = 30.0; attr_max = 60.0 }
      in
      let _, _, m1 = nfs_client ~config:slow_probe w "c1" in
      let _, _, m2 = nfs_client ~config:slow_probe w "c2" in
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
      let _, _, m1 = snfs_client w "c1" in
      let _, _, m2 = snfs_client w "c2" in
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
      let _, _, m1 = rfs_client w "c1" in
      let _, _, m2 = rfs_client w "c2" in
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
      let _, client, m = snfs_client w "c1" in
      let server = Snfs_setup.get w in
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
      let cache = Blockcache.Cache.name (Snfs.Snfs_client.cache client) in
      Alcotest.(check bool) "writes averted counted" true
        (count ~labels:[ ("cache", cache) ] "cache_writes_averted_total" >= 16))

let test_nfs_cannot_avert_writes () =
  run_sim (fun e ->
      let w = make_world e in
      let _, _, m = nfs_client w "c1" in
      let server = Nfs_setup.get w in
      let fd = Vfs.Fileio.creat m "/tmpfile" in
      ignore (Vfs.Fileio.write fd ~len:65536);
      Vfs.Fileio.close fd;
      Vfs.Fileio.unlink m "/tmpfile";
      let writes =
        calls (Nfs.Nfs_server.service server) "write"
      in
      Alcotest.(check int) "all 16 blocks written through" 16 writes)

let test_snfs_syncer_writes_back () =
  run_sim (fun e ->
      let w = make_world e in
      let _, client, m = snfs_client w "c1" in
      Snfs.Snfs_client.start_syncer client ~interval:30.0;
      let server = Snfs_setup.get w in
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
      let _, c1, m1 = snfs_client w "c1" in
      let _, _, m2 = snfs_client w "c2" in
      let server = Snfs_setup.get w in
      let stamp = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/dirtyfile" in
      ignore (Vfs.Fileio.write ~stamp fd ~len:8192);
      Vfs.Fileio.close fd;
      (* dirty blocks still at client 1 *)
      Alcotest.(check int) "dirty at client" 2
        (Blockcache.Cache.dirty_count (Snfs.Snfs_client.cache c1)
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
      let _, _, m = snfs_client w "c1" in
      let server = Snfs_setup.get w in
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
      let _, _, m = nfs_client w "c1" in
      let server = Nfs_setup.get w in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:16384);
      Vfs.Fileio.close fd;
      let reads_before =
        calls (Nfs.Nfs_server.service server) "read"
      in
      ignore (Vfs.Fileio.read_file m "/f");
      let reads_after =
        calls (Nfs.Nfs_server.service server) "read"
      in
      Alcotest.(check bool) "invalidate-on-close forces re-reads" true
        (reads_after - reads_before >= 4))

let test_nfs_fixed_client_keeps_cache () =
  run_sim (fun e ->
      let w = make_world e in
      let fixed =
        { Nfs.Nfs_client.default_config with invalidate_on_close = false }
      in
      let _, _, m = nfs_client ~config:fixed w "c1" in
      let server = Nfs_setup.get w in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:16384);
      Vfs.Fileio.close fd;
      let reads_before =
        calls (Nfs.Nfs_server.service server) "read"
      in
      ignore (Vfs.Fileio.read_file m "/f");
      let reads_after =
        calls (Nfs.Nfs_server.service server) "read"
      in
      Alcotest.(check int) "fixed client reads from cache" reads_before
        reads_after)

let test_snfs_delayed_close () =
  counted (fun count e ->
      let w = make_world e in
      let config =
        {
          Snfs.Snfs_client.default_config with
          delayed_close = true;
          delayed_close_timeout = 60.0;
        }
      in
      let _, _, m = snfs_client ~config w "c1" in
      let server = Snfs_setup.get w in
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
      let _, c1, m1 = snfs_client w "c1" in
      let _, c2, m2 = snfs_client w "c2" in
      let server = Snfs_setup.get w in
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
      let table_before =
        Spritely.State_table.to_reports (Snfs.Snfs_server.state_table server)
      in
      Alcotest.(check bool) "server holds state" true
        (List.length table_before > 0);
      (* crash and reboot the server; clients replay their state *)
      Netsim.Net.Host.crash w.server_host;
      Sim.Engine.sleep e 5.0;
      Netsim.Net.Host.reboot w.server_host;
      (* a call from a client triggers the service restart hook that
         clears the table; then clients re-send their opens *)
      Snfs.Snfs_client.recover_now c1;
      Snfs.Snfs_client.recover_now c2;
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
     times out the callback, forgets the dead client, and proceeds *)
  counted (fun count e ->
      let w = make_world e in
      let h1, _, m1 = snfs_client w "c1" in
      let _, _, m2 = snfs_client w "c2" in
      let server = Snfs_setup.get w in
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
           ~file:attrs.Localfs.ino))

let test_snfs_relinquish_reclaims_delayed_closes () =
  (* Section 6.2's worry: delayed-close clients fill the state table
     with apparently-open files. The server's relinquish callback asks
     them to let go, and the blocked open then succeeds. *)
  run_sim (fun e ->
      let w = make_world e in
      (* a dedicated small-table server *)
      let small_fs = w.server_fs in
      let server =
        Snfs.Snfs_server.serve w.rpc w.server_host ~fsid:9
          ~max_table_entries:4 small_fs
      in
      let host = Netsim.Net.Host.create w.net "dc" in
      let client =
        Snfs.Snfs_client.mount w.rpc ~client:host ~server:w.server_host
          ~root:(Snfs.Snfs_server.root_fh server)
          ~config:
            {
              Snfs.Snfs_client.default_config with
              delayed_close = true;
              delayed_close_timeout = 10_000.0 (* never spontaneous *);
            }
          ~name:"dc" ()
      in
      let m = Vfs.Mount.create () in
      Vfs.Mount.mount m ~at:"/" (Snfs.Snfs_client.fs client);
      (* touch enough files that their delayed closes fill the table *)
      for i = 1 to 5 do
        Vfs.Fileio.write_file m (Printf.sprintf "/f%d" i) ~bytes:100
      done;
      (* every write_file is open+close; the closes were withheld, so
         the 5th file needed a relinquish to find a slot — and all five
         writes succeeded *)
      for i = 1 to 5 do
        Alcotest.(check bool)
          (Printf.sprintf "f%d exists" i)
          true
          (Vfs.Fileio.exists m (Printf.sprintf "/f%d" i))
      done;
      let table = Snfs.Snfs_server.state_table server in
      Alcotest.(check bool) "table stayed within bounds" true
        (Spritely.State_table.entry_count table <= 4);
      Alcotest.(check bool) "server issued relinquish callbacks" true
        (Snfs.Snfs_server.callbacks_sent server > 0))

let test_kent_block_granularity_sharing () =
  (* two clients write-share ONE FILE but different blocks: under
     Kent's protocol both keep caching (SNFS would have disabled both
     caches for the whole file) *)
  counted (fun count e ->
      let w = make_world e in
      let _, _, m1 = kent_client w "k1" in
      let _, _, m2 = kent_client w "k2" in
      let server = Kent_setup.get w in
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
        calls (Kentfs.Kent_server.service server) "write"
      in
      for _ = 1 to 10 do
        Vfs.Fileio.seek fd1 0;
        ignore (Vfs.Fileio.write fd1 ~len:4096);
        Vfs.Fileio.seek fd2 (2 * 4096);
        ignore (Vfs.Fileio.write fd2 ~len:4096)
      done;
      Alcotest.(check int) "steady state: zero write RPCs" writes_before
        (calls (Kentfs.Kent_server.service server) "write");
      Alcotest.(check int) "steady state: no more acquires" 1
        (count ~labels:(host "k2") "kent_acquires_total");
      Vfs.Fileio.close fd1;
      Vfs.Fileio.close fd2)

let test_kent_read_recalls_dirty_block () =
  counted (fun count e ->
      let w = make_world e in
      let _, _, m1 = kent_client w "k1" in
      let _, _, m2 = kent_client w "k2" in
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
      let w = make_world e in
      let server =
        Snfs.Snfs_server.serve w.rpc w.server_host ~fsid:9 ~recovery_grace:20.0
          w.server_fs
      in
      let client_on name =
        let host = Netsim.Net.Host.create w.net name in
        let c =
          Snfs.Snfs_client.mount w.rpc ~client:host ~server:w.server_host
            ~root:(Snfs.Snfs_server.root_fh server) ~name ()
        in
        let m = Vfs.Mount.create () in
        Vfs.Mount.mount m ~at:"/" (Snfs.Snfs_client.fs c);
        (c, m)
      in
      let c1, m1 = client_on "g1" in
      let _c2, m2 = client_on "g2" in
      Vfs.Fileio.write_file m1 "/a" ~bytes:4096;
      Vfs.Fileio.write_file m2 "/b" ~bytes:4096;
      (* server reboots with a 20 s grace period *)
      Netsim.Net.Host.crash w.server_host;
      Sim.Engine.sleep e 2.0;
      Netsim.Net.Host.reboot w.server_host;
      (* client 1 recovers immediately and may work during grace *)
      Snfs.Snfs_client.recover_now c1;
      Alcotest.(check bool) "grace active" true (Snfs.Snfs_server.in_grace server);
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
        true (waited > 5.0);
      Alcotest.(check bool) "grace over by then" false
        (Snfs.Snfs_server.in_grace server))

let test_snfs_client_reaper () =
  (* a client crashes without any pending callback to expose it; the
     server's keepalive-based reaper notices and reclaims its state *)
  run_sim (fun e ->
      let w = make_world e in
      let server = Snfs_setup.get w in
      Snfs.Snfs_server.start_laundromat ~lease:30.0 ~courtesy_lifetime:0.0
        server ~interval:20.0;
      let h1, _, m1 = snfs_client w "c1" in
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
      let _, _, m2 = snfs_client w "c2" in
      let fd2 = Vfs.Fileio.openf m2 "/held-open" Vfs.Fs.Read_only in
      Sim.Engine.sleep e 200.0;
      Alcotest.(check int) "live client not reaped" 1
        (Snfs.Snfs_server.clients_reaped server);
      Vfs.Fileio.close fd2)

let () =
  let conformance name make =
    ( name ^ " conformance",
      [
        Alcotest.test_case "basic ops" `Quick (basic_ops_roundtrip make);
        Alcotest.test_case "namespace and fsync" `Quick
          (namespace_and_fsync make);
        Alcotest.test_case "sequential write sharing" `Quick
          (sequential_write_sharing make);
      ] )
  in
  Alcotest.run "protocols"
    [
      conformance "nfs" (fun w n -> nfs_client w n);
      conformance "snfs" (fun w n -> snfs_client w n);
      conformance "rfs" (fun w n -> rfs_client w n);
      conformance "kent" (fun w n -> kent_client w n);
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
    ]
