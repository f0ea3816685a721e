type protocol = Stack.protocol =
  | Local
  | Nfs_proto of Nfs.Nfs_client.config
  | Snfs_proto of Snfs.Snfs_client.config
  | Rfs_proto of Rfs.Rfs_client.config
  | Kent_proto of Kentfs.Kent_client.config

type tmp_placement = Tmp_local | Tmp_remote

type t = {
  engine : Sim.Engine.t;
  client_host : Netsim.Net.Host.t;
  server_host : Netsim.Net.Host.t;
  service : Netsim.Rpc.service option;
  ctx : Workload.App.t;
}

let fsid = 7

let create engine ~protocol ~tmp ?(update_interval = Some 30.0)
    ?(name_cache = false) ?(write_back_policy = `Unix) () =
  let cluster = Cluster.create engine in
  let client_host, remote =
    match Stack.kind_of protocol with
    | None -> (Netsim.Net.Host.create cluster.Cluster.net "client", None)
    | Some kind ->
        let server = Cluster.serve cluster ~fsid kind in
        let c =
          Cluster.mount cluster server ~host:"client"
            ~name:(Stack.kind_name kind) protocol
        in
        (c.Cluster.host, Some (server.Stack.service, c.Cluster.stack))
  in
  let client_disk = Diskm.Disk.create engine "client-disk" in
  (* traditional Unix: data writes delayed, structural writes
     synchronous — that is why even the fully-local sort still writes
     metadata in Table 5-5 *)
  let client_fs =
    Localfs.create engine ~name:"clientfs" ~disk:client_disk
      ~cache_blocks:4096 ~meta_policy:`Sync ()
  in
  let local_fs = Vfs.Local_mount.make client_fs in
  let mounts = Vfs.Mount.create () in
  (* mount layout *)
  (match (remote, tmp) with
  | None, _ -> Vfs.Mount.mount mounts ~at:"/" local_fs
  | Some (_, client), Tmp_remote ->
      Vfs.Mount.mount mounts ~at:"/" client.Stack.fs;
      Vfs.Mount.mount mounts ~at:"/local" local_fs
  | Some (_, client), Tmp_local ->
      Vfs.Mount.mount mounts ~at:"/data" client.Stack.fs;
      Vfs.Mount.mount mounts ~at:"/" local_fs);
  if name_cache then Vfs.Mount.enable_name_cache mounts;
  let ctx = Workload.App.make ~mounts ~host:client_host in
  (* create the standard directories (runs in the caller's process) *)
  let ensure path =
    if not (Vfs.Fileio.exists mounts path) then Vfs.Fileio.mkdir mounts path
  in
  (match (remote, tmp) with
  | None, _ -> List.iter ensure [ "/data"; "/tmp"; "/usr_tmp"; "/local" ]
  | Some _, Tmp_remote -> List.iter ensure [ "/data"; "/tmp"; "/usr_tmp" ]
  | Some _, Tmp_local ->
      (* /data is the remote mount root itself *)
      List.iter ensure [ "/tmp"; "/usr_tmp"; "/local" ]);
  (* background write-back daemons *)
  (match update_interval with
  | None -> ()
  | Some interval ->
      let min_age =
        match write_back_policy with `Unix -> None | `Sprite age -> Some age
      in
      Localfs.start_syncer client_fs ?min_age ~interval ();
      Option.iter
        (fun (_, client) ->
          Blockcache.Cache.start_syncer client.Stack.cache ?min_age ~interval ())
        remote);
  {
    engine;
    client_host;
    server_host = cluster.Cluster.server_host;
    service = Option.map fst remote;
    ctx;
  }

let ctx t = t.ctx
let client_host t = t.client_host
let server_host t = t.server_host
let service t = t.service

let rpc_counts t =
  match t.service with
  | Some svc -> Stats.Counter.snapshot (Netsim.Rpc.counters svc)
  | None -> Stats.Counter.create ()

let drain t ~horizon =
  Sim.Engine.sleep t.engine horizon

let counting t f =
  let before = rpc_counts t in
  let v = f () in
  (v, Stats.Counter.diff (rpc_counts t) before)

let andrew t config =
  let tree = Workload.Andrew.setup t.ctx config in
  (* quiesce: let the setup's delayed writes reach the server before
     the timed run, as the paper's repeated-trial methodology did *)
  drain t ~horizon:65.0;
  (* count only RPCs issued during the timed benchmark *)
  counting t (fun () -> Workload.Andrew.run t.ctx config tree)
