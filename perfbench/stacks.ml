(* Protocol stacks the benchmark assembles itself, for the traced run.

   Each function mirrors a library experiment (Experiments.Testbed with
   Campaign.run_one and Sort_exp.run_sort, Scaling_exp.run, Sharing_exp's
   SNFS clients, Crash_exp.run) and builds it from the same public
   constructors in the same order, with one difference: every file
   system is passed through [Vtrace.wrap] before it is mounted, so the
   benchmark can time vnode calls.
   [Vfs.Fs.t] is a record of closures, so this needs no program change.
   The traced run checks that these copies produce the same model
   outputs as the library entry points, unit for unit. *)

module Testbed = Experiments.Testbed

type testbed = { ctx : Workload.App.t; rpc_counts : unit -> Stats.Counter.t }

let server_cache_blocks = 896
let client_cache_blocks = 4096

(* Experiments.Testbed.create with its default options *)
let testbed ~wrap engine ~protocol ~tmp ~update_interval =
  let net = Netsim.Net.create engine () in
  let rpc = Netsim.Rpc.create net () in
  let server_host = Netsim.Net.Host.create net "server" in
  let client_host = Netsim.Net.Host.create net "client" in
  let server_disk = Diskm.Disk.create engine "server-disk" in
  let server_fs =
    Localfs.create engine ~name:"serverfs" ~disk:server_disk
      ~cache_blocks:server_cache_blocks ~meta_policy:`Sync ()
  in
  let client_disk = Diskm.Disk.create engine "client-disk" in
  let client_fs =
    Localfs.create engine ~name:"clientfs" ~disk:client_disk
      ~cache_blocks:client_cache_blocks ~meta_policy:`Sync ()
  in
  let local_fs = wrap (Vfs.Local_mount.make client_fs) in
  let mounts = Vfs.Mount.create () in
  let fsid = 7 in
  let remote =
    match protocol with
    | Testbed.Local -> None
    | Testbed.Nfs_proto config ->
        let server = Nfs.Nfs_server.serve rpc server_host ~fsid server_fs in
        let client =
          Nfs.Nfs_client.mount rpc ~client:client_host ~server:server_host
            ~root:(Nfs.Nfs_server.root_fh server)
            ~config:{ config with cache_blocks = client_cache_blocks }
            ()
        in
        Some
          ( Nfs.Nfs_client.fs client,
            Nfs.Nfs_server.service server,
            Nfs.Nfs_client.cache client )
    | Testbed.Snfs_proto config ->
        let server = Snfs.Snfs_server.serve rpc server_host ~fsid server_fs in
        let client =
          Snfs.Snfs_client.mount rpc ~client:client_host ~server:server_host
            ~root:(Snfs.Snfs_server.root_fh server)
            ~config:{ config with cache_blocks = client_cache_blocks }
            ()
        in
        Some
          ( Snfs.Snfs_client.fs client,
            Snfs.Snfs_server.service server,
            Snfs.Snfs_client.cache client )
    | Testbed.Rfs_proto config ->
        let server = Rfs.Rfs_server.serve rpc server_host ~fsid server_fs in
        let client =
          Rfs.Rfs_client.mount rpc ~client:client_host ~server:server_host
            ~root:(Rfs.Rfs_server.root_fh server)
            ~config:{ config with cache_blocks = client_cache_blocks }
            ()
        in
        Some
          ( Rfs.Rfs_client.fs client,
            Rfs.Rfs_server.service server,
            Rfs.Rfs_client.cache client )
    | Testbed.Kent_proto config ->
        let server = Kentfs.Kent_server.serve rpc server_host ~fsid server_fs in
        let client =
          Kentfs.Kent_client.mount rpc ~client:client_host ~server:server_host
            ~root:(Kentfs.Kent_server.root_fh server)
            ~config:{ config with cache_blocks = client_cache_blocks }
            ()
        in
        Some
          ( Kentfs.Kent_client.fs client,
            Kentfs.Kent_server.service server,
            Kentfs.Kent_client.cache client )
  in
  (match (remote, tmp) with
  | None, _ -> Vfs.Mount.mount mounts ~at:"/" local_fs
  | Some (fs, _, _), Testbed.Tmp_remote ->
      Vfs.Mount.mount mounts ~at:"/" (wrap fs);
      Vfs.Mount.mount mounts ~at:"/local" local_fs
  | Some (fs, _, _), Testbed.Tmp_local ->
      Vfs.Mount.mount mounts ~at:"/data" (wrap fs);
      Vfs.Mount.mount mounts ~at:"/" local_fs);
  let ctx = Workload.App.make ~mounts ~host:client_host in
  let ensure path =
    if not (Vfs.Fileio.exists mounts path) then Vfs.Fileio.mkdir mounts path
  in
  (match (remote, tmp) with
  | None, _ -> List.iter ensure [ "/data"; "/tmp"; "/usr_tmp"; "/local" ]
  | Some _, Testbed.Tmp_remote -> List.iter ensure [ "/data"; "/tmp"; "/usr_tmp" ]
  | Some _, Testbed.Tmp_local -> List.iter ensure [ "/tmp"; "/usr_tmp"; "/local" ]);
  (match update_interval with
  | None -> ()
  | Some interval -> (
      Localfs.start_syncer client_fs ~interval ();
      match remote with
      | Some (_, _, cache) -> Blockcache.Cache.start_syncer cache ~interval ()
      | None -> ()));
  let rpc_counts () =
    match remote with
    | Some (_, svc, _) -> Stats.Counter.snapshot (Netsim.Rpc.counters svc)
    | None -> Stats.Counter.create ()
  in
  { ctx; rpc_counts }

(* Experiments.Campaign.run_one, without observability *)
let andrew vt (config : Experiments.Campaign.config) =
  Experiments.Driver.run (fun engine ->
      let tb =
        testbed ~wrap:(Vtrace.wrap vt) engine ~protocol:config.protocol
          ~tmp:config.tmp ~update_interval:(Some 30.0)
      in
      let tree =
        Vtrace.phase vt "Andrew.setup" (fun () ->
            Workload.Andrew.setup tb.ctx config.andrew)
      in
      Sim.Engine.sleep engine 65.0;
      let before = tb.rpc_counts () in
      let phases =
        Vtrace.phase vt "Andrew.run" (fun () ->
            Workload.Andrew.run tb.ctx config.andrew tree)
      in
      (phases, Stats.Counter.diff (tb.rpc_counts ()) before))

(* Experiments.Sort_exp.run_sort *)
let sort vt ~protocol ~update ~input_kb =
  Experiments.Driver.run (fun engine ->
      let tb =
        testbed ~wrap:(Vtrace.wrap vt) engine ~protocol ~tmp:Testbed.Tmp_remote
          ~update_interval:update
      in
      let config =
        {
          Workload.Sort_workload.default_config with
          input_bytes = input_kb * 1024;
        }
      in
      Vtrace.phase vt "Sort_workload.setup" (fun () ->
          Workload.Sort_workload.setup tb.ctx config);
      let before = tb.rpc_counts () in
      let r =
        Vtrace.phase vt "Sort_workload.run" (fun () ->
            Workload.Sort_workload.run tb.ctx config)
      in
      ( r.Workload.Sort_workload.elapsed,
        r.Workload.Sort_workload.temp_bytes_written,
        Stats.Counter.diff (tb.rpc_counts ()) before ))

(* Experiments.Scaling_exp's per-client edit/compile loop *)
let client_loop ctx ~home ~iterations =
  let m = ctx.Workload.App.mounts in
  Vfs.Fileio.mkdir m home;
  for i = 1 to 3 do
    Vfs.Fileio.write_file m (Printf.sprintf "%s/src%d.c" home i) ~bytes:6_000
  done;
  for it = 1 to iterations do
    for i = 1 to 3 do
      ignore (Vfs.Fileio.read_file m (Printf.sprintf "%s/src%d.c" home i))
    done;
    Workload.App.think ctx 0.5;
    Vfs.Fileio.write_file m
      (Printf.sprintf "%s/src%d.c" home ((it mod 3) + 1))
      ~bytes:6_000;
    Workload.App.think ctx 2.0;
    let temp = Printf.sprintf "%s/ctm.tmp" home in
    Vfs.Fileio.write_file m temp ~bytes:40_000;
    ignore (Vfs.Fileio.read_file m temp);
    Vfs.Fileio.unlink m temp;
    Vfs.Fileio.write_file m (Printf.sprintf "%s/prog%d.o" home it) ~bytes:20_000
  done

(* Experiments.Scaling_exp.run for NFS and SNFS, at its default
   iteration count *)
let scaling vt ~protocol ~clients =
  let iterations = 8 in
  Experiments.Driver.run (fun engine ->
      let net = Netsim.Net.create engine () in
      let rpc = Netsim.Rpc.create net () in
      let server_host = Netsim.Net.Host.create net "server" in
      let server_disk = Diskm.Disk.create engine "server-disk" in
      let server_fs =
        Localfs.create engine ~name:"serverfs" ~disk:server_disk
          ~cache_blocks:server_cache_blocks ~meta_policy:`Sync ()
      in
      let make_client =
        match protocol with
        | Testbed.Nfs_proto config ->
            let server = Nfs.Nfs_server.serve rpc server_host ~fsid:1 server_fs in
            fun host name ->
              let c =
                Nfs.Nfs_client.mount rpc ~client:host ~server:server_host
                  ~root:(Nfs.Nfs_server.root_fh server) ~config ~name ()
              in
              (Nfs.Nfs_client.fs c, Netsim.Rpc.counters (Nfs.Nfs_server.service server))
        | Testbed.Snfs_proto config ->
            let server =
              Snfs.Snfs_server.serve rpc server_host ~fsid:1 server_fs
            in
            fun host name ->
              let c =
                Snfs.Snfs_client.mount rpc ~client:host ~server:server_host
                  ~root:(Snfs.Snfs_server.root_fh server) ~config ~name ()
              in
              Snfs.Snfs_client.start_syncer c ~interval:30.0;
              ( Snfs.Snfs_client.fs c,
                Netsim.Rpc.counters (Snfs.Snfs_server.service server) )
        | Testbed.Local | Testbed.Rfs_proto _ | Testbed.Kent_proto _ ->
            invalid_arg "Stacks.scaling: NFS or SNFS only"
      in
      let counters = ref None in
      let contexts =
        List.init clients (fun i ->
            let name = Printf.sprintf "client%d" i in
            let host = Netsim.Net.Host.create net name in
            let fs, counts = make_client host name in
            counters := Some counts;
            let mounts = Vfs.Mount.create () in
            Vfs.Mount.mount mounts ~at:"/" (Vtrace.wrap vt fs);
            Workload.App.make ~mounts ~host)
      in
      let t0 = Sim.Engine.now engine in
      let elapsed = Array.make clients 0.0 in
      let wg = Sim.Waitgroup.create engine in
      Sim.Waitgroup.add wg ~n:clients ();
      List.iteri
        (fun i ctx ->
          Sim.Engine.spawn engine ~name:(Printf.sprintf "load%d" i) (fun () ->
              client_loop ctx ~home:(Printf.sprintf "/home%d" i) ~iterations;
              elapsed.(i) <- Sim.Engine.now engine -. t0;
              Sim.Waitgroup.done_ wg))
        contexts;
      Sim.Waitgroup.wait wg;
      let wall = Sim.Engine.now engine -. t0 in
      {
        Experiments.Scaling_exp.clients;
        avg_elapsed = Array.fold_left ( +. ) 0.0 elapsed /. float_of_int clients;
        max_elapsed = Array.fold_left Float.max 0.0 elapsed;
        server_cpu_util =
          Sim.Resource.busy_time (Netsim.Net.Host.cpu server_host) /. wall;
        server_disk_util = Diskm.Disk.busy_time server_disk /. wall;
        total_rpcs =
          (match !counters with Some c -> Stats.Counter.total c | None -> 0);
      })

(* Sharing_exp's SNFS clients, for [Sharing_exp.run_protocol]: four
   hosts sharing one write-shared file *)
let sharing_snfs_clients ?(wrap = Fun.id) _engine net rpc server_host sfs =
  let server = Snfs.Snfs_server.serve rpc server_host ~fsid:1 sfs in
  let hosts =
    List.init 4 (fun i -> Netsim.Net.Host.create net (Printf.sprintf "db%d" i))
  in
  let mounts =
    List.map
      (fun host ->
        let fs =
          Snfs.Snfs_client.fs
            (Snfs.Snfs_client.mount rpc ~client:host ~server:server_host
               ~root:(Snfs.Snfs_server.root_fh server)
               ~name:(Netsim.Net.Host.name host) ())
        in
        let m = Vfs.Mount.create () in
        Vfs.Mount.mount m ~at:"/" (wrap fs);
        (m, host))
      hosts
  in
  (mounts, fun () -> Stats.Counter.total (Snfs.Snfs_server.counters server))

(* Experiments.Crash_exp.run: the same story over the same Crashplan
   schedule, with client0's Andrew phases and every client's vnode
   calls traced. *)
let crash vt ~(protocol : Experiments.Crash_exp.protocol) ~seed =
  let retry_budget = Some 120.0 and courtesy_lifetime = 120.0 in
  let stamp_c1 = 1001 and stamp_c2 = 2002 and stamp_c3 = 3003 in
  let stamp_c3_resumed = 3004 and stamp_c0_db = 4005 in
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
  in
  let file_matches mounts path ~stamp ~bytes =
    match read_runs mounts path with
    | None -> false
    | Some runs ->
        List.fold_left (fun a (_, n) -> a + n) 0 runs = bytes
        && List.for_all (fun (s, _) -> s = stamp) runs
  in
  Experiments.Driver.run (fun engine ->
      let net = Netsim.Net.create engine () in
      let rpc = Netsim.Rpc.create net () in
      let server_host = Netsim.Net.Host.create net "server" in
      let server_disk = Diskm.Disk.create engine "server-disk" in
      let server_fs =
        Localfs.create engine ~name:"serverfs" ~disk:server_disk
          ~cache_blocks:server_cache_blocks ~meta_policy:`Sync ()
      in
      let snfs_server = ref None in
      let mount_client =
        match protocol with
        | Experiments.Crash_exp.Nfs ->
            let server = Nfs.Nfs_server.serve rpc server_host ~fsid:1 server_fs in
            fun host name ->
              let config = { Nfs.Nfs_client.default_config with retry_budget } in
              Nfs.Nfs_client.fs
                (Nfs.Nfs_client.mount rpc ~client:host ~server:server_host
                   ~root:(Nfs.Nfs_server.root_fh server) ~config ~name ())
        | Experiments.Crash_exp.Snfs ->
            let server =
              Snfs.Snfs_server.serve rpc server_host ~recovery_grace:10.0
                ~fsid:1 server_fs
            in
            Snfs.Snfs_server.start_laundromat ~lease:10.0 ~courtesy_lifetime
              server ~interval:5.0;
            snfs_server := Some server;
            fun host name ->
              let config = { Snfs.Snfs_client.default_config with retry_budget } in
              let c =
                Snfs.Snfs_client.mount rpc ~client:host ~server:server_host
                  ~root:(Snfs.Snfs_server.root_fh server) ~config ~name ()
              in
              Snfs.Snfs_client.start_keepalive c ~interval:5.0;
              Snfs.Snfs_client.fs c
        | Experiments.Crash_exp.Rfs ->
            let server = Rfs.Rfs_server.serve rpc server_host ~fsid:1 server_fs in
            fun host name ->
              let config = { Rfs.Rfs_client.default_config with retry_budget } in
              Rfs.Rfs_client.fs
                (Rfs.Rfs_client.mount rpc ~client:host ~server:server_host
                   ~root:(Rfs.Rfs_server.root_fh server) ~config ~name ())
        | Experiments.Crash_exp.Kent ->
            let server =
              Kentfs.Kent_server.serve rpc server_host ~fsid:1 server_fs
            in
            fun host name ->
              let config =
                { Kentfs.Kent_client.default_config with retry_budget }
              in
              Kentfs.Kent_client.fs
                (Kentfs.Kent_client.mount rpc ~client:host ~server:server_host
                   ~root:(Kentfs.Kent_server.root_fh server) ~config ~name ())
      in
      let mount_at_root host name =
        let mounts = Vfs.Mount.create () in
        Vfs.Mount.mount mounts ~at:"/" (Vtrace.wrap vt (mount_client host name));
        mounts
      in
      let hosts =
        Array.init 4 (fun i ->
            Netsim.Net.Host.create net (Printf.sprintf "client%d" i))
      in
      let ctxs =
        Array.mapi
          (fun i host ->
            let mounts = mount_at_root host (Printf.sprintf "client%d" i) in
            Workload.App.make ~mounts ~host)
          hosts
      in
      let plan = Experiments.Crashplan.generate ~seed () in
      Experiments.Crashplan.install plan engine ~net ~server:server_host
        ~clients:hosts;
      let model : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
      let crashed_writes = [ ("/c1/data", stamp_c1, 16384) ] in
      let andrew_total = ref 0.0 in
      let wg = Sim.Waitgroup.create engine in
      Sim.Waitgroup.add wg ~n:2 ();
      let m i = ctxs.(i).Workload.App.mounts in
      let sleep_until at =
        let now = Sim.Engine.now engine in
        if at > now then Sim.Engine.sleep engine (at -. now)
      in
      Sim.Engine.spawn engine ~name:"story.client1" (fun () ->
          sleep_until 2.0;
          Vfs.Fileio.mkdir (m 1) "/c1";
          let fd = Vfs.Fileio.creat (m 1) "/c1/data" in
          ignore (Vfs.Fileio.write ~stamp:stamp_c1 fd ~len:16384);
          Sim.Engine.sleep engine 1.0e9);
      Sim.Engine.spawn engine ~name:"story.client2" (fun () ->
          sleep_until 3.0;
          Vfs.Fileio.mkdir (m 2) "/shared";
          let fd = Vfs.Fileio.creat (m 2) "/shared/db" in
          ignore (Vfs.Fileio.write ~stamp:stamp_c2 fd ~len:8192);
          Sim.Engine.sleep engine 1.0e9);
      Sim.Engine.spawn engine ~name:"story.client3" (fun () ->
          sleep_until 4.0;
          Vfs.Fileio.mkdir (m 3) "/c3";
          let fd = Vfs.Fileio.creat (m 3) "/c3/log" in
          ignore (Vfs.Fileio.write ~stamp:stamp_c3 fd ~len:8192);
          Vfs.Fileio.fsync fd;
          Hashtbl.replace model "/c3/log" (stamp_c3, 8192);
          sleep_until 230.0;
          Vfs.Fileio.seek fd 0;
          ignore (Vfs.Fileio.write ~stamp:stamp_c3_resumed fd ~len:8192);
          Vfs.Fileio.fsync fd;
          Vfs.Fileio.close fd;
          Hashtbl.replace model "/c3/log" (stamp_c3_resumed, 8192);
          Sim.Waitgroup.done_ wg);
      Sim.Engine.spawn engine ~name:"story.client0" (fun () ->
          sleep_until 5.0;
          let ctx = ctxs.(0) in
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
          let tree =
            Vtrace.phase vt "Andrew.setup" (fun () ->
                Workload.Andrew.setup ctx cfg)
          in
          let times =
            Vtrace.phase vt "Andrew.run" (fun () ->
                Workload.Andrew.run ctx cfg tree)
          in
          andrew_total := Workload.Andrew.total times;
          sleep_until 120.0;
          (match !snfs_server with
          | None -> ()
          | Some srv ->
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
      let lifecycle_done srv =
        let st = Snfs.Snfs_server.lifecycle_stats srv in
        st.Snfs.Snfs_server.reaped_courtesy >= 1
        && st.Snfs.Snfs_server.reaped_expirable >= 1
        && st.Snfs.Snfs_server.revivals >= 1
      in
      (match !snfs_server with
      | None -> ()
      | Some srv ->
          let deadline = Float.max 600.0 (Sim.Engine.now engine +. 240.0) in
          while (not (lifecycle_done srv)) && Sim.Engine.now engine < deadline do
            Sim.Engine.sleep engine 10.0
          done);
      Sim.Engine.sleep engine 45.0;
      let vm = mount_at_root (Netsim.Net.Host.create net "verifier") "verifier" in
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
      let lifecycle = Option.map Snfs.Snfs_server.lifecycle_stats !snfs_server in
      let courtesy_resumed =
        match !snfs_server with
        | None -> false
        | Some srv ->
            (Snfs.Snfs_server.lifecycle_stats srv).Snfs.Snfs_server.revivals >= 1
            && Snfs.Snfs_server.client_state srv
                 ~client:(Netsim.Net.Host.addr hosts.(3))
               = Spritely.Lifecycle.Active
            && Snfs.Snfs_server.clients_reaped srv = 2
      in
      let ok =
        divergent = 0
        &&
        match !snfs_server with
        | None -> true
        | Some srv -> lifecycle_done srv && courtesy_resumed
      in
      {
        Experiments.Crash_exp.protocol =
          Experiments.Crash_exp.protocol_name protocol;
        seed;
        files_checked = List.length checked;
        divergent;
        lost_files;
        andrew_total = !andrew_total;
        lifecycle;
        courtesy_resumed;
        ok;
      })
