(* Tests for the hybrid NFS/SNFS server of Section 6.1: one file
   system, both protocols, consistency maintained for the SNFS clients
   and "normal NFS consistency" for the NFS ones. *)

open Harness

type world = { cluster : Experiments.Cluster.t; hybrid : Snfs.Hybrid_server.t }

(* The hybrid is not a {!Experiments.Stack} kind, so it is served, and
   its clients are mounted, here. *)
let make_world ?probe e =
  let cluster = Experiments.Cluster.create e in
  let hybrid =
    Snfs.Hybrid_server.serve cluster.rpc cluster.server_host
      ?nfs_probe_interval:probe ~fsid:1 cluster.server_fs
  in
  { cluster; hybrid }

(* a client host [name] with an SNFS or NFS client of the hybrid
   mounted at / *)
let snfs_client w name =
  let host = Netsim.Net.Host.create w.cluster.net name in
  let client =
    Snfs.Snfs_client.mount w.cluster.rpc ~client:host
      ~server:w.cluster.server_host
      ~root:(Snfs.Snfs_server.root_fh (Snfs.Hybrid_server.snfs w.hybrid))
      ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Snfs.Snfs_client.fs client);
  mounts

let nfs_client w name =
  let host = Netsim.Net.Host.create w.cluster.net name in
  let client =
    Nfs.Nfs_client.mount w.cluster.rpc ~client:host
      ~server:w.cluster.server_host
      ~root:(Snfs.Hybrid_server.nfs_root_fh w.hybrid)
      ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Nfs.Nfs_client.fs client);
  mounts

let test_both_protocols_serve () =
  run_sim (fun e ->
      let w = make_world e in
      let ms = snfs_client w "s1" in
      let mn = nfs_client w "n1" in
      (* an SNFS client writes (data stays dirty at the client) *)
      let stamp = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat ms "/f" in
      ignore (Vfs.Fileio.write ~stamp fd ~len:4096);
      Vfs.Fileio.close fd;
      (* the NFS client sees the namespace through the same server *)
      Alcotest.(check bool) "nfs client sees the file" true
        (Vfs.Fileio.exists mn "/f"))

let test_nfs_read_forces_writeback () =
  run_sim (fun e ->
      let w = make_world e in
      let ms = snfs_client w "s1" in
      let mn = nfs_client w "n1" in
      (* SNFS client writes and closes; dirty blocks stay at the client *)
      let stamp = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat ms "/doc" in
      ignore (Vfs.Fileio.write ~stamp fd ~len:8192);
      Vfs.Fileio.close fd;
      (* the NFS client reads: the implicit open recalls the dirty
         blocks before the read is served *)
      let fd = Vfs.Fileio.openf mn "/doc" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd ~len:8192 in
      Vfs.Fileio.close fd;
      (match observed with
      | (s, _) :: _ ->
          Alcotest.(check int) "NFS client sees SNFS client's dirty data" stamp
            s
      | [] -> Alcotest.fail "no data");
      Alcotest.(check bool) "a callback was used" true
        (Snfs.Snfs_server.callbacks_sent (Snfs.Hybrid_server.snfs w.hybrid) > 0))

let test_nfs_write_invalidates_snfs_cache () =
  counted (fun count e ->
      let w = make_world ~probe:5.0 e in
      let ms = snfs_client w "s1" in
      let mn = nfs_client w "n1" in
      (* NFS client creates the file; SNFS client opens and caches it
         (after the creating client's access record has expired, so the
         SNFS open is granted cachability) *)
      let stamp1 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat mn "/shared" in
      ignore (Vfs.Fileio.write ~stamp:stamp1 fd ~len:4096);
      Vfs.Fileio.close fd;
      Sim.Engine.sleep e 8.0;
      let rfd = Vfs.Fileio.openf ms "/shared" Vfs.Fs.Read_only in
      ignore (Vfs.Fileio.read rfd ~len:4096);
      (* the NFS client overwrites: the hybrid server's implicit open
         invalidates the SNFS client's cache first *)
      let stamp2 = Vfs.Stamp.fresh () in
      let wfd = Vfs.Fileio.openf mn "/shared" Vfs.Fs.Write_only in
      ignore (Vfs.Fileio.write ~stamp:stamp2 wfd ~len:4096);
      Vfs.Fileio.close wfd;
      Sim.Engine.sleep e 1.0;
      (* the SNFS reader rereads through its open descriptor: fresh *)
      Vfs.Fileio.seek rfd 0;
      let observed = Vfs.Fileio.read rfd ~len:4096 in
      Vfs.Fileio.close rfd;
      (match observed with
      | (s, _) :: _ ->
          Alcotest.(check int) "SNFS reader sees the NFS write" stamp2 s
      | [] -> Alcotest.fail "no data");
      Alcotest.(check bool) "SNFS client served a callback" true
        (count ~labels:[ ("host", "s1") ] "snfs_callbacks_served_total" > 0))

let test_snfs_denied_caching_during_probe_window () =
  run_sim (fun e ->
      let w = make_world ~probe:20.0 e in
      let ms = snfs_client w "s1" in
      let mn = nfs_client w "n1" in
      (* the NFS client writes a file *)
      let fd = Vfs.Fileio.creat mn "/hot" in
      ignore (Vfs.Fileio.write fd ~len:4096);
      Vfs.Fileio.close fd;
      Alcotest.(check bool) "phantom open held" true
        (Snfs.Hybrid_server.phantom_opens w.hybrid > 0);
      (* within the probe window, the SNFS open must be non-cachable:
         the NFS client may still write behind our back *)
      Sim.Engine.sleep e 2.0;
      let table =
        Snfs.Snfs_server.state_table (Snfs.Hybrid_server.snfs w.hybrid)
      in
      let ino = (Vfs.Fileio.stat ms "/hot").Localfs.ino in
      let fd = Vfs.Fileio.openf ms "/hot" Vfs.Fs.Read_only in
      Alcotest.(check bool) "not cachable during window" false
        (Spritely.State_table.can_cache table ~file:ino
           ~client:
             (let c, _, _ = List.hd (Spritely.State_table.openers table ~file:ino) in
              c));
      Vfs.Fileio.close fd;
      (* after the window expires, a fresh open may cache again *)
      Sim.Engine.sleep e 30.0;
      Alcotest.(check int) "phantoms expired" 0
        (Snfs.Hybrid_server.phantom_opens w.hybrid);
      let fd = Vfs.Fileio.openf ms "/hot" Vfs.Fs.Read_only in
      let c, _, _ = List.hd (Spritely.State_table.openers table ~file:ino) in
      Alcotest.(check bool) "cachable after window" true
        (Spritely.State_table.can_cache table ~file:ino ~client:c);
      Vfs.Fileio.close fd)

let test_phantom_refresh () =
  run_sim (fun e ->
      let w = make_world ~probe:10.0 e in
      let mn = nfs_client w "n1" in
      Vfs.Fileio.write_file mn "/f" ~bytes:4096;
      Alcotest.(check bool) "phantom exists" true
        (Snfs.Hybrid_server.phantom_opens w.hybrid > 0);
      (* keep touching the file: the phantom must not expire *)
      for _ = 1 to 5 do
        Sim.Engine.sleep e 6.0;
        ignore (Vfs.Fileio.read_file mn "/f")
      done;
      Alcotest.(check bool) "still held after 30s of activity" true
        (Snfs.Hybrid_server.phantom_opens w.hybrid > 0);
      Sim.Engine.sleep e 25.0;
      Alcotest.(check int) "expired after quiescence" 0
        (Snfs.Hybrid_server.phantom_opens w.hybrid))

let () =
  Alcotest.run "hybrid"
    [
      ( "coexistence",
        [
          Alcotest.test_case "both protocols serve" `Quick
            test_both_protocols_serve;
          Alcotest.test_case "NFS read forces writeback" `Quick
            test_nfs_read_forces_writeback;
          Alcotest.test_case "NFS write invalidates SNFS" `Quick
            test_nfs_write_invalidates_snfs_cache;
          Alcotest.test_case "probe window denies caching" `Quick
            test_snfs_denied_caching_during_probe_window;
          Alcotest.test_case "phantom refresh" `Quick test_phantom_refresh;
        ] );
    ]
