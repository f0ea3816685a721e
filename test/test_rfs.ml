(* RFS-specific consistency suite (Section 2.5's write-through
   statepoint between NFS and Sprite): the same two-client sharing
   scenario the SNFS suite passes, plus the write-through policy's own
   guarantees — full-block writes are visible to a fresh open while the
   writer still holds the file, partial blocks become visible at close,
   and version revalidation keeps the no-sharing fast path cheap. *)

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

(* [run_sim] under a fresh metrics registry: [f] also gets [count],
   the run's count so far of one registry counter under one label set *)
let counted f =
  let m = Obs.Metrics.create () in
  let count ~labels name = Obs.Metrics.counter_value m ~labels name in
  Obs.Metrics.with_metrics m (fun () -> run_sim (f count))

type world = {
  net : Netsim.Net.t;
  rpc : Netsim.Rpc.t;
  server_host : Netsim.Net.Host.t;
  rfs_server : Rfs.Rfs_server.t;
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
  let rfs_server = Rfs.Rfs_server.serve rpc server_host ~fsid:3 server_fs in
  { net; rpc; server_host; rfs_server }

let rfs_client w name =
  let host = Netsim.Net.Host.create w.net name in
  let client =
    Rfs.Rfs_client.mount w.rpc ~client:host ~server:w.server_host
      ~root:(Rfs.Rfs_server.root_fh w.rfs_server)
      ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Rfs.Rfs_client.fs client);
  (host, client, mounts)

let first_stamp = function
  | (s, _) :: _ -> s
  | [] -> Alcotest.fail "no data"

let test_concurrent_sharing_visibility () =
  (* the two-client scenario of the SNFS suite: the writer still holds
     the file open, yet a fresh open by the reader must observe the new
     data, because RFS writes through and invalidates reader caches *)
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
      (* the writer overwrites and keeps the file open: the full-block
         write goes through to the server immediately *)
      let stamp2 = Vfs.Stamp.fresh () in
      let wfd = Vfs.Fileio.openf m1 "/f" Vfs.Fs.Write_only in
      ignore (Vfs.Fileio.write ~stamp:stamp2 wfd ~len:4096);
      Sim.Engine.sleep e 1.0;
      Alcotest.(check bool) "reader cache invalidated" true
        (count ~labels:[ ("host", "c2") ] "rfs_invalidations_served_total"
        > 0);
      let fd2 = Vfs.Fileio.openf m2 "/f" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd2 ~len:4096 in
      Vfs.Fileio.close fd2;
      Alcotest.(check int) "fresh open sees the in-progress write" stamp2
        (first_stamp observed);
      Vfs.Fileio.close wfd;
      Vfs.Fileio.close rfd)

let test_partial_block_visible_at_close () =
  (* partial-block writes are delayed at the writer until close; the
     close flush makes them visible (and the server's copy is current
     from then on) *)
  run_sim (fun e ->
      let w = make_world e in
      let _, _, m1 = rfs_client w "c1" in
      let _, _, m2 = rfs_client w "c2" in
      let stamp1 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/p" in
      ignore (Vfs.Fileio.write ~stamp:stamp1 fd ~len:100);
      Vfs.Fileio.close fd;
      let fd2 = Vfs.Fileio.openf m2 "/p" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd2 ~len:100 in
      Vfs.Fileio.close fd2;
      Alcotest.(check int) "first write visible after close" stamp1
        (first_stamp observed);
      let stamp2 = Vfs.Stamp.fresh () in
      let wfd = Vfs.Fileio.openf m1 "/p" Vfs.Fs.Write_only in
      ignore (Vfs.Fileio.write ~stamp:stamp2 wfd ~len:100);
      Vfs.Fileio.close wfd;
      Sim.Engine.sleep e 1.0;
      let fd3 = Vfs.Fileio.openf m2 "/p" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd3 ~len:100 in
      Vfs.Fileio.close fd3;
      Alcotest.(check int) "overwrite visible after close" stamp2
        (first_stamp observed))

let test_version_revalidation_avoids_rereads () =
  (* close then reopen with no interleaving writer: the version check
     validates the cache and no data is re-read from the server *)
  run_sim (fun e ->
      let w = make_world e in
      let _, _, m = rfs_client w "c1" in
      let server = w.rfs_server in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:16384);
      Vfs.Fileio.close fd;
      Sim.Engine.sleep e 1.0;
      let calls = Netsim.Rpc.counters (Rfs.Rfs_server.service server) in
      let reads_before = Stats.Counter.get calls "read" in
      ignore (Vfs.Fileio.read_file m "/f");
      let reads_after = Stats.Counter.get calls "read" in
      Alcotest.(check int) "no read RPCs on reopen" reads_before reads_after)

let () =
  Alcotest.run "rfs"
    [
      ( "write-through consistency",
        [
          Alcotest.test_case "concurrent sharing visibility" `Quick
            test_concurrent_sharing_visibility;
          Alcotest.test_case "partial block visible at close" `Quick
            test_partial_block_visible_at_close;
          Alcotest.test_case "version revalidation" `Quick
            test_version_revalidation_avoids_rereads;
        ] );
    ]
