(* NFS / SNFS coexistence (paper Section 6.1): one server exports one
   file system under both protocols at once. The server keeps the SNFS
   clients consistent even against plain-NFS traffic by treating every
   NFS access as an implicit SNFS open, held for an attributes-probe
   interval.

   Run with:  dune exec examples/hybrid_mount.exe *)

let () =
  Experiments.Driver.run @@ fun engine ->
  (* the paper's testbed, its file system served by the hybrid, which
     is not one of the Experiments.Stack protocols *)
  let { Experiments.Cluster.net; rpc; server_host; server_fs; _ } =
    Experiments.Cluster.create engine
  in
  let hybrid =
    Snfs.Hybrid_server.serve rpc server_host ~nfs_probe_interval:30.0 ~fsid:1
      server_fs
  in
  (* one modern client speaking SNFS, one legacy client speaking NFS *)
  let snfs_host = Netsim.Net.Host.create net "modern" in
  let snfs_client =
    Snfs.Snfs_client.mount rpc ~client:snfs_host ~server:server_host
      ~root:(Snfs.Snfs_server.root_fh (Snfs.Hybrid_server.snfs hybrid))
      ~name:"modern" ()
  in
  let m_snfs = Vfs.Mount.create () in
  Vfs.Mount.mount m_snfs ~at:"/" (Snfs.Snfs_client.fs snfs_client);
  let nfs_host = Netsim.Net.Host.create net "legacy" in
  let nfs_client =
    Nfs.Nfs_client.mount rpc ~client:nfs_host ~server:server_host
      ~root:(Snfs.Hybrid_server.nfs_root_fh hybrid)
      ~name:"legacy" ()
  in
  let m_nfs = Vfs.Mount.create () in
  Vfs.Mount.mount m_nfs ~at:"/" (Nfs.Nfs_client.fs nfs_client);

  (* the SNFS client writes a report; its data is delayed locally *)
  let stamp = Vfs.Stamp.fresh () in
  let fd = Vfs.Fileio.creat m_snfs "/report.txt" in
  ignore (Vfs.Fileio.write ~stamp fd ~len:12_000);
  Vfs.Fileio.close fd;
  Printf.printf
    "modern client wrote /report.txt (12 kB, still dirty client-side)\n";

  (* the legacy client reads it: the hybrid server first recalls the
     dirty blocks via a callback, so legacy sees current data *)
  let n = Vfs.Fileio.read_file m_nfs "/report.txt" in
  Printf.printf
    "legacy client read %d bytes — correct data, thanks to %d callback(s)\n" n
    (Snfs.Snfs_server.callbacks_sent (Snfs.Hybrid_server.snfs hybrid));
  Printf.printf "phantom NFS opens held at the server: %d\n"
    (Snfs.Hybrid_server.phantom_opens hybrid);

  (* while the legacy client's access record is live, the modern client
     is denied cachability on that file *)
  let fd = Vfs.Fileio.openf m_snfs "/report.txt" Vfs.Fs.Read_only in
  let table = Snfs.Snfs_server.state_table (Snfs.Hybrid_server.snfs hybrid) in
  let ino = (Vfs.Fileio.stat m_snfs "/report.txt").Localfs.ino in
  Printf.printf "during the probe window, file state is %s\n"
    (Spritely.State_table.state_to_string
       (Spritely.State_table.state table ~file:ino));
  Vfs.Fileio.close fd;

  (* after the window, normal SNFS caching resumes *)
  Sim.Engine.sleep engine 40.0;
  let fd = Vfs.Fileio.openf m_snfs "/report.txt" Vfs.Fs.Read_only in
  let c, _, _ = List.hd (Spritely.State_table.openers table ~file:ino) in
  Printf.printf
    "after the window: phantoms %d, modern client may cache again: %b\n"
    (Snfs.Hybrid_server.phantom_opens hybrid)
    (Spritely.State_table.can_cache table ~file:ino ~client:c);
  Vfs.Fileio.close fd
