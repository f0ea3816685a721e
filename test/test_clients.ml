(* Behavioural unit tests of the protocol *clients*: the NFS client's
   Ultrix-era quirks (adaptive attribute cache, partial-block write
   delay, close barrier, read-ahead) and the SNFS client's cachability
   mechanics (no probes, non-cachable mode, version rules, keepalive
   recovery). *)

open Harness

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

(* a cluster serving [kind], and a client host "c" with its default
   stack mounted at / *)
let world kind e =
  let cluster = Cluster.create e in
  let server = Cluster.serve cluster ~fsid:1 kind in
  let client =
    Cluster.mount cluster server ~host:"c" ~name:"c" (Stack.default kind)
  in
  (cluster, server, client, client.Cluster.mounts)

let nfs_world = world Stack.Nfs
let snfs_world = world Stack.Snfs

(* the server's count so far of one procedure's calls *)
let count server proc =
  Stats.Counter.get (Netsim.Rpc.counters server.Stack.service) proc

(* ---- NFS client ---- *)

let test_nfs_partial_block_write_delayed () =
  run_sim (fun e ->
      let _, server, _, m = nfs_world e in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:100);
      (* footnote 4: a partial block is not written through yet *)
      Sim.Engine.sleep e 0.5;
      Alcotest.(check int) "not yet written" 0 (count server "write");
      (* ...but close finishes it synchronously *)
      Vfs.Fileio.close fd;
      Alcotest.(check int) "written at close" 1 (count server "write"))

let test_nfs_full_block_write_behind () =
  run_sim (fun e ->
      let _, server, _, m = nfs_world e in
      let fd = Vfs.Fileio.creat m "/f" in
      let t0 = Sim.Engine.now e in
      ignore (Vfs.Fileio.write fd ~len:4096);
      let write_returned = Sim.Engine.now e -. t0 in
      (* the biod-style daemon picks it up without blocking the app *)
      Sim.Engine.sleep e 1.0;
      Alcotest.(check int) "written by daemon" 1 (count server "write");
      Alcotest.(check bool)
        (Printf.sprintf "write returned quickly (%.4f s)" write_returned)
        true (write_returned < 0.01);
      Vfs.Fileio.close fd)

let test_nfs_close_barrier () =
  run_sim (fun e ->
      let _, server, _, m = nfs_world e in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:(16 * 4096));
      let t0 = Sim.Engine.now e in
      Vfs.Fileio.close fd;
      let close_time = Sim.Engine.now e -. t0 in
      (* the close waited for all 16 server disk writes *)
      Alcotest.(check int) "all written" 16 (count server "write");
      Alcotest.(check bool)
        (Printf.sprintf "close blocked (%.3f s)" close_time)
        true (close_time > 0.05))

let test_nfs_attr_probe_adaptive () =
  run_sim (fun e ->
      let _, server, _, m = nfs_world e in
      Vfs.Fileio.write_file m "/f" ~bytes:4096;
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Read_only in
      (* a freshly modified file: the attribute timeout is the 3 s
         minimum, so reads more than 3 s apart each probe *)
      let before = count server "getattr" in
      for _ = 1 to 4 do
        Sim.Engine.sleep e 4.0;
        Vfs.Fileio.seek fd 0;
        ignore (Vfs.Fileio.read fd ~len:100)
      done;
      let probes_young = count server "getattr" - before in
      Alcotest.(check bool)
        (Printf.sprintf "young file probed (%d)" probes_young)
        true (probes_young >= 3);
      (* after the file has been stable for a long time, the timeout
         has adapted upward: the same access pattern probes less *)
      Sim.Engine.sleep e 600.0;
      Vfs.Fileio.seek fd 0;
      ignore (Vfs.Fileio.read fd ~len:100);
      let before = count server "getattr" in
      for _ = 1 to 4 do
        Sim.Engine.sleep e 4.0;
        Vfs.Fileio.seek fd 0;
        ignore (Vfs.Fileio.read fd ~len:100)
      done;
      let probes_old = count server "getattr" - before in
      Alcotest.(check bool)
        (Printf.sprintf "old file probed less (%d < %d)" probes_old probes_young)
        true (probes_old < probes_young);
      Vfs.Fileio.close fd)

let test_nfs_own_writes_do_not_invalidate () =
  run_sim (fun e ->
      let _, server, _, m = nfs_world e in
      Vfs.Fileio.write_file m "/f" ~bytes:10;
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Read_write in
      ignore (Vfs.Fileio.write fd ~len:4096);
      Sim.Engine.sleep e 5.0;
      (* reading our own fresh write must hit the cache, even though
         the server's mtime changed — the write replies updated our
         attribute cache, so the next probe sees no foreign change *)
      let before = count server "read" in
      Vfs.Fileio.seek fd 0;
      ignore (Vfs.Fileio.read fd ~len:4096);
      Alcotest.(check int) "no re-read of own data" before (count server "read");
      Vfs.Fileio.close fd)

let test_nfs_readahead () =
  run_sim (fun e ->
      let _, server, _, m = nfs_world e in
      Vfs.Fileio.write_file m "/big" ~bytes:(8 * 4096);
      Sim.Engine.sleep e 1.0;
      let fd = Vfs.Fileio.openf m "/big" Vfs.Fs.Read_only in
      let before = count server "read" in
      (* read the first block only; read-ahead fetches the second *)
      ignore (Vfs.Fileio.read fd ~len:4096);
      Sim.Engine.sleep e 1.0;
      Alcotest.(check int) "one extra block prefetched" 2
        (count server "read" - before);
      Vfs.Fileio.close fd)

(* ---- SNFS client ---- *)

let test_snfs_no_attribute_probes () =
  run_sim (fun e ->
      let _, server, _, m = snfs_world e in
      Vfs.Fileio.write_file m "/f" ~bytes:4096;
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Read_only in
      let baseline = count server "getattr" in
      (* hold it open and keep reading for minutes: cachable files need
         no attribute refreshing (Section 4.2.1) *)
      for _ = 1 to 20 do
        Sim.Engine.sleep e 30.0;
        Vfs.Fileio.seek fd 0;
        ignore (Vfs.Fileio.read fd ~len:4096)
      done;
      Alcotest.(check int) "zero getattr RPCs while open" baseline
        (count server "getattr");
      Vfs.Fileio.close fd)

let test_snfs_non_cachable_mode () =
  run_sim (fun e ->
      let w, server, _, m = snfs_world e in
      (* a second client makes the file write-shared *)
      let m2 =
        (Cluster.mount w server ~host:"c2" ~name:"snfs2"
           (Stack.default Stack.Snfs))
          .Cluster.mounts
      in
      Vfs.Fileio.write_file m "/shared" ~bytes:(4 * 4096);
      let wfd = Vfs.Fileio.openf m "/shared" Vfs.Fs.Write_only in
      let rfd = Vfs.Fileio.openf m2 "/shared" Vfs.Fs.Read_only in
      (* write-shared now; c2's reads must each go to the server, with
         read-ahead disabled *)
      let before = count server "read" in
      ignore (Vfs.Fileio.read rfd ~len:4096);
      Sim.Engine.sleep e 0.5;
      Alcotest.(check int) "exactly one read RPC, no read-ahead" 1
        (count server "read" - before);
      ignore (Vfs.Fileio.read rfd ~len:4096);
      Sim.Engine.sleep e 0.5;
      Alcotest.(check int) "every read goes through" 2
        (count server "read" - before);
      (* and the writer's writes go straight through too *)
      let wbefore = count server "write" in
      ignore (Vfs.Fileio.write wfd ~len:4096);
      Alcotest.(check int) "write-through" 1 (count server "write" - wbefore);
      (* attributes are fetched, not cached, in this mode *)
      let gbefore = count server "getattr" in
      ignore (Vfs.Fileio.stat m2 "/shared");
      Alcotest.(check bool) "attrs fetched" true
        (count server "getattr" > gbefore);
      Vfs.Fileio.close wfd;
      Vfs.Fileio.close rfd)

let test_snfs_prev_version_rule () =
  run_sim (fun e ->
      let _, server, _, m = snfs_world e in
      (* write, close, reopen for write: the version bumps but the
         cache stays valid via the previous-version rule, so nothing is
         re-read *)
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:(4 * 4096));
      Vfs.Fileio.close fd;
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Read_write in
      Vfs.Fileio.seek fd 0;
      ignore (Vfs.Fileio.read fd ~len:(4 * 4096));
      Alcotest.(check int) "no reads from server" 0 (count server "read");
      Vfs.Fileio.close fd)

let test_snfs_keepalive_recovery () =
  run_sim (fun e ->
      let w, server, client, m = snfs_world e in
      Snfs.Snfs_client.start_keepalive
        (Option.get client.Cluster.stack.snfs_client)
        ~interval:5.0;
      Sim.Engine.sleep e 6.0 (* let the keepalive learn the first epoch *);
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:4096);
      (* server reboots; the keepalive daemon notices and replays state
         without any explicit recovery call *)
      Netsim.Net.Host.crash w.server_host;
      Sim.Engine.sleep e 3.0;
      Netsim.Net.Host.reboot w.server_host;
      Sim.Engine.sleep e 30.0;
      let table =
        Snfs.Snfs_server.state_table (Option.get server.snfs_server)
      in
      let files = Spritely.State_table.files table in
      Alcotest.(check bool) "state replayed by keepalive" true
        (List.length files > 0);
      Alcotest.(check bool) "our open is back" true
        (List.exists
           (fun file -> Spritely.State_table.openers table ~file <> [])
           files);
      Vfs.Fileio.close fd)

let test_snfs_fsync_pushes_dirty () =
  run_sim (fun e ->
      let _, server, _, m = snfs_world e in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:(8 * 4096));
      Alcotest.(check int) "delayed" 0 (count server "write");
      Vfs.Fileio.fsync fd;
      Alcotest.(check int) "all pushed by fsync" 8 (count server "write");
      Vfs.Fileio.close fd)

let () =
  Alcotest.run "clients"
    [
      ( "nfs client",
        [
          Alcotest.test_case "partial block delayed" `Quick
            test_nfs_partial_block_write_delayed;
          Alcotest.test_case "full block write-behind" `Quick
            test_nfs_full_block_write_behind;
          Alcotest.test_case "close barrier" `Quick test_nfs_close_barrier;
          Alcotest.test_case "adaptive attr probes" `Quick
            test_nfs_attr_probe_adaptive;
          Alcotest.test_case "own writes don't invalidate" `Quick
            test_nfs_own_writes_do_not_invalidate;
          Alcotest.test_case "read-ahead" `Quick test_nfs_readahead;
        ] );
      ( "snfs client",
        [
          Alcotest.test_case "no attribute probes" `Quick
            test_snfs_no_attribute_probes;
          Alcotest.test_case "non-cachable mode" `Quick test_snfs_non_cachable_mode;
          Alcotest.test_case "previous-version rule" `Quick
            test_snfs_prev_version_rule;
          Alcotest.test_case "keepalive recovery" `Quick
            test_snfs_keepalive_recovery;
          Alcotest.test_case "fsync" `Quick test_snfs_fsync_pushes_dirty;
        ] );
    ]
