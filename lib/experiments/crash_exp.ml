(* The crash campaign: a seeded fault schedule (Crashplan) driven
   end-to-end over each protocol stack with an oracle check afterwards.

   Five hosts next to the server: client0 runs the Andrew benchmark
   (the server crashes and reboots underneath it), client1 and client2
   write and then crash without closing, client3 writes, is partitioned,
   and resumes after the partition heals. A model of every acknowledged
   write by a surviving client is kept on the side; after the dust
   settles a fresh verifier client mounts the file system and reads
   every model file back — any stamp or length mismatch is an
   acknowledged-write loss. Files dirtied only by crashed clients are
   accounted separately (delayed-write data loss, expected under
   write-back caching without a syncer).

   Under SNFS the run additionally exercises the whole client
   lifecycle: the crashed clients are demoted to Courtesy and reaped
   (one by courtesy-lifetime expiry, one by a conflicting open from
   client0), while the merely-partitioned client3 is demoted and then
   revived with its state intact. *)

type protocol = Stack.kind = Nfs | Snfs | Rfs | Kent

let protocol_name = Stack.kind_name
let all_protocols = Stack.kinds

type verdict = {
  protocol : string;
  seed : int64;
  files_checked : int;
  divergent : int;  (** acknowledged surviving-client writes lost *)
  lost_files : int;  (** unacknowledged crashed-client writes lost *)
  andrew_total : float;
  lifecycle : Snfs.Snfs_server.lifecycle_stats option;  (** SNFS only *)
  courtesy_resumed : bool;
      (** SNFS: the partitioned client was revived, never reaped *)
  ok : bool;
}

(* retry budget: long enough to ride out the server reboot plus its
   grace period, short enough that a dead server still fails the run *)
let retry_budget = Some 120.0
let courtesy_lifetime = 120.0

(* fixed stamps so the oracle can attribute every block to its writer *)
let stamp_c1 = 1001
let stamp_c2 = 2002
let stamp_c3 = 3003
let stamp_c3_resumed = 3004
let stamp_c0_db = 4005

let read_runs mounts path =
  match Vfs.Fileio.openf mounts path Vfs.Fs.Read_only with
  | exception Localfs.Error _ -> None
  | fd ->
      let rec go acc =
        match Vfs.Fileio.read fd ~len:65536 with
        | [] -> List.concat (List.rev acc)
        | runs -> go (runs :: acc)
      in
      let runs = go [] in
      Vfs.Fileio.close fd;
      Some runs

(* does [path] hold exactly [bytes] bytes all carrying [stamp]? *)
let file_matches mounts path ~stamp ~bytes =
  match read_runs mounts path with
  | None -> false
  | Some runs ->
      List.fold_left (fun a (_, n) -> a + n) 0 runs = bytes
      && List.for_all (fun (s, _) -> s = stamp) runs

let run ?trace ?metrics ~protocol ~seed () =
  Driver.run ?trace ?metrics (fun engine ->
      let cluster = Cluster.create engine in
      (* Clients get a retry budget and (for SNFS) a keepalive, but no
         cache syncer: dirty delayed writes must still be sitting in the
         crashed clients' caches when the schedule kills them. *)
      let server =
        Cluster.serve cluster ~recovery_grace:10.0 ~fsid:1 protocol
      in
      let snfs_server = server.Stack.snfs_server in
      Option.iter
        (fun srv ->
          Snfs.Snfs_server.start_laundromat ~lease:10.0 ~courtesy_lifetime srv
            ~interval:5.0)
        snfs_server;
      let config =
        Stack.with_retry_budget retry_budget (Stack.default protocol)
      in
      let mount_client name =
        let c = Cluster.mount cluster server ~host:name ~name config in
        Option.iter
          (fun c -> Snfs.Snfs_client.start_keepalive c ~interval:5.0)
          c.Cluster.stack.Stack.snfs_client;
        c
      in
      let clients =
        Array.init 4 (fun i -> mount_client (Printf.sprintf "client%d" i))
      in
      let hosts = Array.map (fun c -> c.Cluster.host) clients in
      let plan = Crashplan.generate ~seed () in
      Crashplan.install plan engine ~net:cluster.Cluster.net
        ~server:cluster.Cluster.server_host ~clients:hosts;
      (* acknowledged writes by surviving clients: path -> (stamp, bytes) *)
      let model : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
      (* unacknowledged writes by clients the schedule kills *)
      let crashed_writes = [ ("/c1/data", stamp_c1, 16384) ] in
      let andrew_total = ref 0.0 in
      let wg = Sim.Waitgroup.create engine in
      Sim.Waitgroup.add wg ~n:2 ();
      let m i = clients.(i).Cluster.mounts in
      let sleep_until at =
        let now = Sim.Engine.now engine in
        if at > now then Sim.Engine.sleep engine (at -. now)
      in
      (* client1: delayed write held open, then crashes (schedule) *)
      Sim.Engine.spawn engine ~name:"story.client1" (fun () ->
          sleep_until 2.0;
          Vfs.Fileio.mkdir (m 1) "/c1";
          let fd = Vfs.Fileio.creat (m 1) "/c1/data" in
          ignore (Vfs.Fileio.write ~stamp:stamp_c1 fd ~len:16384);
          (* no fsync, no close: parked until the host dies *)
          Sim.Engine.sleep engine 1.0e9);
      (* client2: holds /shared/db open for write, then crashes *)
      Sim.Engine.spawn engine ~name:"story.client2" (fun () ->
          sleep_until 3.0;
          Vfs.Fileio.mkdir (m 2) "/shared";
          let fd = Vfs.Fileio.creat (m 2) "/shared/db" in
          ignore (Vfs.Fileio.write ~stamp:stamp_c2 fd ~len:8192);
          Sim.Engine.sleep engine 1.0e9);
      (* client3: acknowledged write on a file held open across the
         partition (so the server keeps it in the state table), then
         resumes on the same descriptor after the heal — no reopen *)
      Sim.Engine.spawn engine ~name:"story.client3" (fun () ->
          sleep_until 4.0;
          Vfs.Fileio.mkdir (m 3) "/c3";
          let fd = Vfs.Fileio.creat (m 3) "/c3/log" in
          ignore (Vfs.Fileio.write ~stamp:stamp_c3 fd ~len:8192);
          Vfs.Fileio.fsync fd;
          Hashtbl.replace model "/c3/log" (stamp_c3, 8192);
          (* the partition opens and heals while we sleep; this write
             is the courtesy-client resumption *)
          sleep_until 230.0;
          Vfs.Fileio.seek fd 0;
          ignore (Vfs.Fileio.write ~stamp:stamp_c3_resumed fd ~len:8192);
          Vfs.Fileio.fsync fd;
          Vfs.Fileio.close fd;
          Hashtbl.replace model "/c3/log" (stamp_c3_resumed, 8192);
          Sim.Waitgroup.done_ wg);
      (* client0: Andrew across the server crash, then a conflicting
         open of the dead client2's file *)
      Sim.Engine.spawn engine ~name:"story.client0" (fun () ->
          sleep_until 5.0;
          let ctx = Workload.App.make ~mounts:(m 0) ~host:hosts.(0) in
          Vfs.Fileio.mkdir (m 0) "/c0";
          Vfs.Fileio.mkdir (m 0) "/c0/tmp";
          let cfg =
            {
              Workload.Andrew.default_config with
              src_root = "/c0/src";
              dst_root = "/c0/dst";
              tmp_dir = "/c0/tmp";
            }
          in
          let tree = Workload.Andrew.setup ctx cfg in
          let times = Workload.Andrew.run ctx cfg tree in
          andrew_total := Workload.Andrew.total times;
          sleep_until 120.0;
          (match snfs_server with
          | None -> ()
          | Some srv ->
              (* let the laundromat demote the dead client2 first, so
                 this open conflicts with a Courtesy client *)
              let deadline = Sim.Engine.now engine +. 240.0 in
              let c2 = Netsim.Net.Host.addr hosts.(2) in
              while
                Snfs.Snfs_server.client_state srv ~client:c2
                  = Spritely.Lifecycle.Active
                && Sim.Engine.now engine < deadline
              do
                Sim.Engine.sleep engine 5.0
              done);
          let fd = Vfs.Fileio.creat (m 0) "/shared/db" in
          ignore (Vfs.Fileio.write ~stamp:stamp_c0_db fd ~len:8192);
          Vfs.Fileio.fsync fd;
          Vfs.Fileio.close fd;
          Hashtbl.replace model "/shared/db" (stamp_c0_db, 8192);
          Sim.Waitgroup.done_ wg);
      Sim.Waitgroup.wait wg;
      (* under SNFS, wait for the lifecycle story to complete: one
         courtesy reap (client1), one conflict reap (client2), one
         revival (client3) *)
      (match snfs_server with
      | None -> ()
      | Some srv ->
          let deadline =
            Float.max 600.0 (Sim.Engine.now engine +. 240.0)
          in
          let done_ () =
            let st = Snfs.Snfs_server.lifecycle_stats srv in
            st.Snfs.Snfs_server.reaped_courtesy >= 1
            && st.Snfs.Snfs_server.reaped_expirable >= 1
            && st.Snfs.Snfs_server.revivals >= 1
          in
          while (not (done_ ())) && Sim.Engine.now engine < deadline do
            Sim.Engine.sleep engine 10.0
          done);
      (* quiesce: let retransmissions and write-behind settle *)
      Sim.Engine.sleep engine 45.0;
      (* a fresh verifier client reads the model back *)
      let vm = (mount_client "verifier").Cluster.mounts in
      let checked =
        Hashtbl.fold (fun path sb acc -> (path, sb) :: acc) model []
        |> List.sort compare
      in
      let divergent =
        List.length
          (List.filter
             (fun (path, (stamp, bytes)) ->
               not (file_matches vm path ~stamp ~bytes))
             checked)
      in
      let lost_files =
        List.length
          (List.filter
             (fun (path, stamp, bytes) ->
               not (file_matches vm path ~stamp ~bytes))
             crashed_writes)
      in
      let lifecycle =
        Option.map Snfs.Snfs_server.lifecycle_stats snfs_server
      in
      let courtesy_resumed =
        match snfs_server with
        | None -> false
        | Some srv ->
            let st = Snfs.Snfs_server.lifecycle_stats srv in
            st.Snfs.Snfs_server.revivals >= 1
            && Snfs.Snfs_server.client_state srv
                 ~client:(Netsim.Net.Host.addr hosts.(3))
               = Spritely.Lifecycle.Active
            && Snfs.Snfs_server.clients_reaped srv = 2
      in
      let ok =
        divergent = 0
        &&
        match lifecycle with
        | None -> true
        | Some st ->
            st.Snfs.Snfs_server.reaped_courtesy >= 1
            && st.Snfs.Snfs_server.reaped_expirable >= 1
            && st.Snfs.Snfs_server.revivals >= 1
            && courtesy_resumed
      in
      (* snapshot the flight-recorder ring at the oracle itself: when the
         run is traced or the recorder is not armed this is a no-op, so
         the verdict stays a pure function of the seed *)
      if not ok then
        Obs.Flight.capture
          ~reason:
            (Printf.sprintf "crash oracle failed: %s seed %Ld"
               (protocol_name protocol) seed);
      {
        protocol = protocol_name protocol;
        seed;
        files_checked = List.length checked;
        divergent;
        lost_files;
        andrew_total = !andrew_total;
        lifecycle;
        courtesy_resumed;
        ok;
      })

let table verdicts =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "protocol | files | divergent | lost | reaps(c/e) | revivals | ok\n";
  Buffer.add_string b
    "---------+-------+-----------+------+------------+----------+----\n";
  List.iter
    (fun v ->
      let reaps, revs =
        match v.lifecycle with
        | None -> ("-", "-")
        | Some st ->
            ( Printf.sprintf "%d/%d" st.Snfs.Snfs_server.reaped_courtesy
                st.Snfs.Snfs_server.reaped_expirable,
              string_of_int st.Snfs.Snfs_server.revivals )
      in
      Buffer.add_string b
        (Printf.sprintf "%-8s | %5d | %9d | %4d | %10s | %8s | %s\n" v.protocol
           v.files_checked v.divergent v.lost_files reaps revs
           (if v.ok then "yes" else "NO")))
    verdicts;
  Buffer.contents b
