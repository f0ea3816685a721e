(* Server crash and recovery: the stateful-server objection answered
   (Sections 2.4 and 7 of the paper — implemented here as the paper's
   future work proposed, following Sprite's approach).

   Two clients hold open files and dirty data; the server crashes and
   reboots with an empty state table; the clients' keepalive daemons
   notice the new boot epoch and replay their open state; the table is
   rebuilt and work continues, dirty data intact.

   Run with:  dune exec examples/crash_recovery.exe *)

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

let () =
  Experiments.Driver.run @@ fun engine ->
  let cluster = Cluster.create engine in
  let stack = Cluster.serve cluster ~fsid:1 Stack.Snfs in
  let server = Option.get stack.snfs_server in
  let client_on name =
    let c =
      Cluster.mount cluster stack ~host:name ~name (Stack.default Stack.Snfs)
    in
    Snfs.Snfs_client.start_keepalive (Option.get c.stack.snfs_client)
      ~interval:5.0;
    c.mounts
  in
  let m1 = client_on "alice" in
  let m2 = client_on "bob" in

  (* build up state: alice writes (and holds the file open), bob reads *)
  let fd_log = Vfs.Fileio.creat m1 "/journal" in
  let stamp = Vfs.Fileio.write fd_log ~len:20_000 in
  Vfs.Fileio.write_file m2 "/report" ~bytes:8_000;
  let fd_rep = Vfs.Fileio.openf m2 "/report" Vfs.Fs.Read_only in
  ignore (Vfs.Fileio.read fd_rep ~len:4096);
  Sim.Engine.sleep engine 10.0;

  let show_table label =
    let table = Snfs.Snfs_server.state_table server in
    Printf.printf "%s: %d state-table entries\n" label
      (Spritely.State_table.entry_count table);
    List.iter
      (fun file ->
        Printf.printf "  file %d: %s%s\n" file
          (Spritely.State_table.state_to_string
             (Spritely.State_table.state table ~file))
          (match Spritely.State_table.last_writer table ~file with
          | Some w -> Printf.sprintf " (last writer: client %d)" w
          | None -> ""))
      (Spritely.State_table.files table)
  in
  show_table "before crash";

  (* the server dies... *)
  Printf.printf "\n*** server crash at t=%.1f ***\n" (Sim.Engine.now engine);
  Netsim.Net.Host.crash cluster.server_host;
  Sim.Engine.sleep engine 8.0;
  Netsim.Net.Host.reboot cluster.server_host;
  Printf.printf "*** server rebooted at t=%.1f (state table empty) ***\n\n"
    (Sim.Engine.now engine);

  (* ...the keepalive daemons detect the epoch change and replay state *)
  Sim.Engine.sleep engine 12.0;
  show_table "after recovery";

  (* work continues where it left off: alice's open is still good and
     her dirty data survives the whole episode *)
  ignore (Vfs.Fileio.write fd_log ~len:4_000);
  Vfs.Fileio.close fd_log;
  Vfs.Fileio.close fd_rep;
  let observed = Vfs.Fileio.read_file m2 "/journal" in
  Printf.printf
    "\nbob reads /journal: %d bytes (first written with stamp %d); the\n\
     close-then-read forced alice's surviving dirty blocks back via a\n\
     callback — nothing was lost.\n"
    observed stamp;
  Printf.printf "callbacks sent by server since boot: %d\n"
    (Snfs.Snfs_server.callbacks_sent server)
