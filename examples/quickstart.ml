(* Quickstart: build a client/server pair, mount Spritely NFS, do some
   file I/O, and watch the consistency machinery at work.

   Run with:  dune exec examples/quickstart.exe *)

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

let () =
  (* cache statistics are counted in a metrics registry *)
  let metrics = Obs.Metrics.create () in
  Experiments.Driver.run ~metrics @@ fun engine ->
  (* one network, one server host with a disk and a local file system,
     exported over SNFS and mounted on one client host *)
  let cluster = Cluster.create engine in
  let server = Cluster.serve cluster ~fsid:1 Stack.Snfs in
  let client =
    Cluster.mount cluster server ~host:"client" ~name:"snfs"
      (Stack.default Stack.Snfs)
  in
  let mounts = client.mounts in

  (* ordinary file I/O through the system-call layer *)
  Vfs.Fileio.mkdir mounts "/project";
  let fd = Vfs.Fileio.creat mounts "/project/notes.txt" in
  ignore (Vfs.Fileio.write fd ~len:10_000);
  Vfs.Fileio.close fd;
  Printf.printf "wrote /project/notes.txt (%d bytes) at t=%.3fs\n"
    (Vfs.Fileio.stat mounts "/project/notes.txt").Localfs.size
    (Sim.Engine.now engine);

  (* the writes are DELAYED: nothing has reached the server yet *)
  let counts = Netsim.Rpc.counters server.service in
  Printf.printf "write RPCs so far: %d (delayed write-back!)\n"
    (Stats.Counter.get counts "write");

  (* reading it back hits the client cache: still no data RPCs *)
  let bytes = Vfs.Fileio.read_file mounts "/project/notes.txt" in
  Printf.printf "read %d bytes back, read RPCs: %d (cache revalidated by \
                 version number)\n"
    bytes
    (Stats.Counter.get counts "read");

  (* the server's state table knows exactly who holds what *)
  let table = Snfs.Snfs_server.state_table (Option.get server.snfs_server) in
  let ino = (Vfs.Fileio.stat mounts "/project/notes.txt").Localfs.ino in
  Printf.printf "server state for the file: %s (last writer: client %d)\n"
    (Spritely.State_table.state_to_string
       (Spritely.State_table.state table ~file:ino))
    (Option.value ~default:(-1) (Spritely.State_table.last_writer table ~file:ino));

  (* an fsync pushes the dirty blocks back *)
  let fd = Vfs.Fileio.openf mounts "/project/notes.txt" Vfs.Fs.Read_only in
  Vfs.Fileio.fsync fd;
  Vfs.Fileio.close fd;
  Printf.printf "after fsync: %d write RPCs, state %s\n"
    (Stats.Counter.get counts "write")
    (Spritely.State_table.state_to_string
       (Spritely.State_table.state table ~file:ino));

  (* a temporary file deleted young never generates write traffic *)
  let before = Stats.Counter.get counts "write" in
  let fd = Vfs.Fileio.creat mounts "/project/scratch.tmp" in
  ignore (Vfs.Fileio.write fd ~len:100_000);
  Vfs.Fileio.close fd;
  Vfs.Fileio.unlink mounts "/project/scratch.tmp";
  Sim.Engine.sleep engine 60.0;
  let cache = Blockcache.Cache.name client.stack.cache in
  Printf.printf
    "temporary file: wrote 100 kB, deleted it; extra write RPCs: %d, \
     writes averted: %d\n"
    (Stats.Counter.get counts "write" - before)
    (Obs.Metrics.counter_value metrics ~labels:[ ("cache", cache) ]
       "cache_writes_averted_total");
  Printf.printf "state table footprint: %d entries, ~%d bytes (sec 4.5)\n"
    (Spritely.State_table.entry_count table)
    (Spritely.State_table.approx_bytes table);
  Printf.printf "done at t=%.3fs (virtual)\n" (Sim.Engine.now engine)
