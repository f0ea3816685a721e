(* RFS-specific consistency suite (Section 2.5's write-through
   statepoint between NFS and Sprite): the same two-client sharing
   scenario the SNFS suite passes, plus the write-through policy's own
   guarantees — full-block writes are visible to a fresh open while the
   writer still holds the file, partial blocks become visible at close,
   and version revalidation keeps the no-sharing fast path cheap. *)

open Harness

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

type world = { cluster : Cluster.t; server : Stack.server }

let make_world e =
  let cluster = Cluster.create e in
  { cluster; server = Cluster.serve cluster ~fsid:3 Stack.Rfs }

(* a client host [name] with the RFS stack mounted at / *)
let mount w name =
  (Cluster.mount w.cluster w.server ~host:name ~name (Stack.default Stack.Rfs))
    .Cluster.mounts

let first_stamp = function
  | (s, _) :: _ -> s
  | [] -> Alcotest.fail "no data"

let test_concurrent_sharing_visibility () =
  (* the two-client scenario of the SNFS suite: the writer still holds
     the file open, yet a fresh open by the reader must observe the new
     data, because RFS writes through and invalidates reader caches *)
  counted (fun count e ->
      let w = make_world e in
      let m1 = mount w "c1" in
      let m2 = mount w "c2" in
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
      let m1 = mount w "c1" in
      let m2 = mount w "c2" in
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
      let m = mount w "c1" in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:16384);
      Vfs.Fileio.close fd;
      Sim.Engine.sleep e 1.0;
      let calls = Netsim.Rpc.counters w.server.service in
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
