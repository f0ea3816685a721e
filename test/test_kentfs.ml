(* Kent-protocol suite (Section 2.5 / reference [4]): per-block
   ownership transfer. The same two-client sharing scenario the SNFS
   suite passes must hold with no open/close traffic at all — the
   server recalls dirty blocks from their owner on demand — and
   ownership of a block must move writer-to-writer with the old owner's
   copy invalidated. *)

open Harness

let host h = [ ("host", h) ]

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

type world = { cluster : Cluster.t; server : Stack.server }

let make_world e =
  let cluster = Cluster.create e in
  { cluster; server = Cluster.serve cluster ~fsid:4 Stack.Kent }

(* a client host [name] with the Kent stack mounted at / *)
let mount w name =
  (Cluster.mount w.cluster w.server ~host:name ~name (Stack.default Stack.Kent))
    .Cluster.mounts

let first_stamp = function
  | (s, _) :: _ -> s
  | [] -> Alcotest.fail "no data"

let test_concurrent_sharing_visibility () =
  (* the SNFS suite's scenario: writer holds the file while a reader
     re-opens. Kent has no opens to hook consistency on; instead the
     reader's cache misses (its copy was invalidated at acquire) and
     the server recalls the dirty block from the owner *)
  counted (fun count e ->
      let w = make_world e in
      let m1 = mount w "k1" in
      let m2 = mount w "k2" in
      let stamp1 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/f" in
      ignore (Vfs.Fileio.write ~stamp:stamp1 fd ~len:4096);
      Vfs.Fileio.close fd;
      (* the reader pulls the block: the server recalls k1's dirty copy
         and the reader joins the copy set *)
      let rfd = Vfs.Fileio.openf m2 "/f" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read rfd ~len:4096 in
      Alcotest.(check int) "reader sees writer's dirty block via recall"
        stamp1 (first_stamp observed);
      Alcotest.(check bool) "recall delivered to the owner" true
        (count ~labels:(host "k1") "kent_callbacks_served_total" > 0);
      Alcotest.(check bool) "server recalled" true
        (count "kent_recalls_sent_total" > 0);
      (* the writer overwrites while the reader still has the file: the
         re-acquire invalidates the reader's cached copy *)
      let stamp2 = Vfs.Stamp.fresh () in
      let wfd = Vfs.Fileio.openf m1 "/f" Vfs.Fs.Write_only in
      ignore (Vfs.Fileio.write ~stamp:stamp2 wfd ~len:4096);
      Sim.Engine.sleep e 0.5;
      Alcotest.(check bool) "reader's copy invalidated" true
        (count "kent_invalidations_sent_total" > 0);
      let fd2 = Vfs.Fileio.openf m2 "/f" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read fd2 ~len:4096 in
      Vfs.Fileio.close fd2;
      Alcotest.(check int) "fresh read sees the in-progress write" stamp2
        (first_stamp observed);
      Vfs.Fileio.close wfd;
      Vfs.Fileio.close rfd)

let test_ownership_transfer_between_writers () =
  (* a block's ownership moves writer-to-writer: the second writer's
     acquire recalls and invalidates the first writer's dirty copy, and
     the first writer then reads the second writer's data back *)
  counted (fun count e ->
      let w = make_world e in
      let m1 = mount w "k1" in
      let m2 = mount w "k2" in
      let stamp1 = Vfs.Stamp.fresh () in
      let fd = Vfs.Fileio.creat m1 "/doc" in
      ignore (Vfs.Fileio.write ~stamp:stamp1 fd ~len:8192);
      Vfs.Fileio.close fd;
      let acquires () = count ~labels:(host "k2") "kent_acquires_total" in
      let acquires_before = acquires () in
      (* k2 takes over block 0 *)
      let stamp2 = Vfs.Stamp.fresh () in
      let wfd = Vfs.Fileio.openf m2 "/doc" Vfs.Fs.Write_only in
      ignore (Vfs.Fileio.write ~stamp:stamp2 wfd ~len:4096);
      Sim.Engine.sleep e 0.5;
      Alcotest.(check int) "one acquire for the takeover"
        (acquires_before + 1) (acquires ());
      Alcotest.(check bool) "old owner called back" true
        (count ~labels:(host "k1") "kent_callbacks_served_total" > 0);
      Alcotest.(check bool) "old owner's copy invalidated" true
        (count "kent_invalidations_sent_total" > 0);
      (* the first writer reads block 0 back: recall from k2 *)
      let rfd = Vfs.Fileio.openf m1 "/doc" Vfs.Fs.Read_only in
      let observed = Vfs.Fileio.read rfd ~len:4096 in
      Alcotest.(check int) "first writer sees the new owner's data" stamp2
        (first_stamp observed);
      Alcotest.(check bool) "second recall, from the new owner" true
        (count ~labels:(host "k2") "kent_callbacks_served_total" > 0);
      (* block 1 never changed hands: k1 still sees its own data *)
      Vfs.Fileio.seek rfd 4096;
      let observed = Vfs.Fileio.read rfd ~len:4096 in
      Alcotest.(check int) "untouched block keeps first writer's data"
        stamp1 (first_stamp observed);
      Vfs.Fileio.close rfd;
      Vfs.Fileio.close wfd)

(* A setattr with a byte left over is refused before Kent's truncation
   prologue acts on it: no invalidation goes out, so the owner keeps
   its block. The refused request still aborts the run. *)
let test_trailing_bytes_refused_before_truncation () =
  let invalidations = ref (fun () -> -1) in
  (match
     counted (fun count e ->
         invalidations := (fun () -> count "kent_invalidations_sent_total");
         let w = make_world e in
         (* k1 owns block 0 *)
         Vfs.Fileio.write_file (mount w "k1") "/f" ~bytes:4096;
         let k2 =
           (Cluster.mount w.cluster w.server ~host:"k2" ~name:"k2"
              (Stack.default Stack.Kent))
             .host
         in
         let call ~proc ?bulk args =
           Netsim.Rpc.call w.cluster.rpc ~src:k2 ~dst:w.cluster.server_host
             ~prog:Kentfs.Kent_server.prog ~proc ?bulk args
         in
         let fh, _ = Nfs.Wire.lookup call ~dir:w.server.root "f" in
         let setattr = Nfs.Wire.Proc.setattr in
         let args =
           let enc = Xdr.Enc.create () in
           setattr.args.enc enc (fh, 0);
           Xdr.Enc.uint32 enc 0;
           Xdr.Enc.to_bytes enc
         in
         ignore (call ~proc:setattr.name args))
   with
  | () -> Alcotest.fail "a setattr with a trailing uint32 was served"
  | exception Sim.Engine.Process_failure (_, Xdr.Error _, _) -> ());
  Alcotest.(check int) "no invalidation sent" 0 (!invalidations ())

let () =
  Alcotest.run "kentfs"
    [
      ( "block ownership",
        [
          Alcotest.test_case "concurrent sharing visibility" `Quick
            test_concurrent_sharing_visibility;
          Alcotest.test_case "ownership transfer" `Quick
            test_ownership_transfer_between_writers;
          Alcotest.test_case "trailing bytes refused before truncation" `Quick
            test_trailing_bytes_refused_before_truncation;
        ] );
    ]
