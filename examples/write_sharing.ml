(* Two clients write-sharing one file: the correctness experiment.

   Under NFS the reader can consume stale data for seconds (the
   probabilistic consistency of Section 2.1). Under SNFS the server's
   second open triggers a callback, caching is disabled, and every read
   sees the latest write (Section 2.2). RFS gets there too, but by
   invalidating only when writes actually happen.

   Run with:  dune exec examples/write_sharing.exe *)

type outcome = { label : string; stale : int; fresh : int; callbacks : int }

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

(* [callbacks] names the metrics counter of the server's callbacks *)
let scenario label kind ~fsid ~callbacks =
  let metrics = Obs.Metrics.create () in
  Experiments.Driver.run ~metrics @@ fun engine ->
  let cluster = Cluster.create engine in
  let server = Cluster.serve cluster ~fsid kind in
  let mount_for host =
    (Cluster.mount cluster server ~host ~name:host (Stack.default kind))
      .Cluster.mounts
  in
  let m_writer = mount_for "writer" in
  let m_reader = mount_for "reader" in

  (* the writer creates the file; the reader opens it and keeps it open *)
  let stamp0 = Vfs.Stamp.fresh () in
  let fd = Vfs.Fileio.creat m_writer "/shared.db" in
  ignore (Vfs.Fileio.write ~stamp:stamp0 fd ~len:4096);
  Vfs.Fileio.close fd;
  let rfd = Vfs.Fileio.openf m_reader "/shared.db" Vfs.Fs.Read_only in
  ignore (Vfs.Fileio.read rfd ~len:4096);

  (* now they truly write-share: the writer updates the block every
     second; after each update the reader re-reads through its open
     descriptor and we check what it saw *)
  let wfd = Vfs.Fileio.openf m_writer "/shared.db" Vfs.Fs.Write_only in
  let stale = ref 0 and fresh = ref 0 in
  let latest = ref stamp0 in
  for _ = 1 to 10 do
    let stamp = Vfs.Stamp.fresh () in
    latest := stamp;
    ignore (Vfs.Fileio.write ~stamp wfd ~len:4096);
    Vfs.Fileio.seek wfd 0;
    Sim.Engine.sleep engine 1.0;
    Vfs.Fileio.seek rfd 0;
    (match Vfs.Fileio.read rfd ~len:4096 with
    | (s, _) :: _ -> if s = !latest then incr fresh else incr stale
    | [] -> incr stale)
  done;
  Vfs.Fileio.close wfd;
  Vfs.Fileio.close rfd;
  let callbacks =
    match callbacks with
    | None -> 0
    | Some name ->
        List.fold_left
          (fun acc (_, n) -> acc + n)
          0
          (Obs.Metrics.counters_with metrics name)
  in
  { label; stale = !stale; fresh = !fresh; callbacks }

let () =
  let outcomes =
    [
      scenario "NFS" Stack.Nfs ~fsid:1 ~callbacks:None;
      scenario "RFS" Stack.Rfs ~fsid:3
        ~callbacks:(Some "rfs_invalidations_sent_total");
      scenario "SNFS" Stack.Snfs ~fsid:2
        ~callbacks:(Some "snfs_callbacks_sent_total");
    ]
  in
  print_string
    (Stats.Table.render
       ~header:[ "protocol"; "fresh reads"; "stale reads"; "callbacks" ]
       (List.map
          (fun o ->
            [
              o.label;
              string_of_int o.fresh;
              string_of_int o.stale;
              string_of_int o.callbacks;
            ])
          outcomes));
  print_newline ();
  print_endline
    "Ten concurrent update/read rounds on one write-shared file.\n\
     NFS serves stale cached data until an attribute probe happens to\n\
     fire; SNFS disabled both caches at the second open (one callback)\n\
     and never returns stale data; RFS invalidates the reader's cache\n\
     on every write, so it is consistent too — at one callback per\n\
     write instead of one per sharing episode."
