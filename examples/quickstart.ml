(* Quickstart: build a client/server pair, mount Spritely NFS, do some
   file I/O, and watch the consistency machinery at work.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* cache statistics are counted in a metrics registry *)
  let metrics = Obs.Metrics.create () in
  Experiments.Driver.run ~metrics @@ fun engine ->
  (* one network, one server host with a disk and a local file system,
     one client host *)
  let net = Netsim.Net.create engine () in
  let rpc = Netsim.Rpc.create net () in
  let server_host = Netsim.Net.Host.create net "server" in
  let client_host = Netsim.Net.Host.create net "client" in
  let disk = Diskm.Disk.create engine "server-disk" in
  let backing =
    Localfs.create engine ~name:"backing" ~disk ~cache_blocks:896
      ~meta_policy:`Sync ()
  in
  (* export it over SNFS and mount it *)
  let server = Snfs.Snfs_server.serve rpc server_host ~fsid:1 backing in
  let client =
    Snfs.Snfs_client.mount rpc ~client:client_host ~server:server_host
      ~root:(Snfs.Snfs_server.root_fh server) ()
  in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Snfs.Snfs_client.fs client);

  (* ordinary file I/O through the system-call layer *)
  Vfs.Fileio.mkdir mounts "/project";
  let fd = Vfs.Fileio.creat mounts "/project/notes.txt" in
  ignore (Vfs.Fileio.write fd ~len:10_000);
  Vfs.Fileio.close fd;
  Printf.printf "wrote /project/notes.txt (%d bytes) at t=%.3fs\n"
    (Vfs.Fileio.stat mounts "/project/notes.txt").Localfs.size
    (Sim.Engine.now engine);

  (* the writes are DELAYED: nothing has reached the server yet *)
  let counts = Netsim.Rpc.counters (Snfs.Snfs_server.service server) in
  Printf.printf "write RPCs so far: %d (delayed write-back!)\n"
    (Stats.Counter.get counts "write");

  (* reading it back hits the client cache: still no data RPCs *)
  let bytes = Vfs.Fileio.read_file mounts "/project/notes.txt" in
  Printf.printf "read %d bytes back, read RPCs: %d (cache revalidated by \
                 version number)\n"
    bytes
    (Stats.Counter.get counts "read");

  (* the server's state table knows exactly who holds what *)
  let table = Snfs.Snfs_server.state_table server in
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
  let cache = Blockcache.Cache.name (Snfs.Snfs_client.cache client) in
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
