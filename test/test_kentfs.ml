(* Kent-protocol suite (Section 2.5 / reference [4]): per-block
   ownership transfer. The same two-client sharing scenario the SNFS
   suite passes must hold with no open/close traffic at all — the
   server recalls dirty blocks from their owner on demand — and
   ownership of a block must move writer-to-writer with the old owner's
   copy invalidated. *)

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
   the run's count so far of one registry counter under one label set
   (none by default) *)
let counted f =
  let m = Obs.Metrics.create () in
  let count ?labels name = Obs.Metrics.counter_value m ?labels name in
  Obs.Metrics.with_metrics m (fun () -> run_sim (f count))

let host h = [ ("host", h) ]

type world = {
  net : Netsim.Net.t;
  rpc : Netsim.Rpc.t;
  server_host : Netsim.Net.Host.t;
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
  let kent_server = Kentfs.Kent_server.serve rpc server_host ~fsid:4 server_fs in
  { net; rpc; server_host; kent_server }

let kent_client w name =
  let host = Netsim.Net.Host.create w.net name in
  let client =
    Kentfs.Kent_client.mount w.rpc ~client:host ~server:w.server_host
      ~root:(Kentfs.Kent_server.root_fh w.kent_server)
      ~name ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Kentfs.Kent_client.fs client);
  (host, client, mounts)

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
      let _, _, m1 = kent_client w "k1" in
      let _, _, m2 = kent_client w "k2" in
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
      let _, _, m1 = kent_client w "k1" in
      let _, _, m2 = kent_client w "k2" in
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

let () =
  Alcotest.run "kentfs"
    [
      ( "block ownership",
        [
          Alcotest.test_case "concurrent sharing visibility" `Quick
            test_concurrent_sharing_visibility;
          Alcotest.test_case "ownership transfer" `Quick
            test_ownership_transfer_between_writers;
        ] );
    ]
