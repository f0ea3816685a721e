type kind = Nfs | Snfs | Rfs | Kent

let kinds = [ Nfs; Snfs; Rfs; Kent ]

let kind_name = function
  | Nfs -> "nfs"
  | Snfs -> "snfs"
  | Rfs -> "rfs"
  | Kent -> "kent"

type protocol =
  | Local
  | Nfs_proto of Nfs.Nfs_client.config
  | Snfs_proto of Snfs.Snfs_client.config
  | Rfs_proto of Rfs.Rfs_client.config
  | Kent_proto of Kentfs.Kent_client.config

let protocol_name = function
  | Local -> "local"
  | Nfs_proto _ -> "NFS"
  | Snfs_proto _ -> "SNFS"
  | Rfs_proto _ -> "RFS"
  | Kent_proto _ -> "Kent"

let kind_of = function
  | Local -> None
  | Nfs_proto _ -> Some Nfs
  | Snfs_proto _ -> Some Snfs
  | Rfs_proto _ -> Some Rfs
  | Kent_proto _ -> Some Kent

let default = function
  | Nfs -> Nfs_proto Nfs.Nfs_client.default_config
  | Snfs -> Snfs_proto Snfs.Snfs_client.default_config
  | Rfs -> Rfs_proto Rfs.Rfs_client.default_config
  | Kent -> Kent_proto Kentfs.Kent_client.default_config

let presets =
  [
    ("local", Local);
    ("nfs", default Nfs);
    ( "nfs-fixed",
      Nfs_proto
        { Nfs.Nfs_client.default_config with invalidate_on_close = false } );
    ("snfs", default Snfs);
    ( "snfs-dc",
      Snfs_proto { Snfs.Snfs_client.default_config with delayed_close = true }
    );
    ("rfs", default Rfs);
    ("kent", default Kent);
  ]

let with_retry_budget retry_budget = function
  | Local -> Local
  | Nfs_proto c -> Nfs_proto { c with retry_budget }
  | Snfs_proto c -> Snfs_proto { c with retry_budget }
  | Rfs_proto c -> Rfs_proto { c with retry_budget }
  | Kent_proto c -> Kent_proto { c with retry_budget }

type server = {
  host : Netsim.Net.Host.t;
  root : Nfs.Wire.fh;
  service : Netsim.Rpc.service;
  snfs_server : Snfs.Snfs_server.t option;
}

let serve ~recovery_grace rpc host ~fsid fs = function
  | Nfs ->
      let s = Nfs.Nfs_server.serve rpc host ~fsid fs in
      let root = Nfs.Nfs_server.root_fh s in
      { host; root; service = Nfs.Nfs_server.service s; snfs_server = None }
  | Snfs ->
      let s = Snfs.Snfs_server.serve rpc host ?recovery_grace ~fsid fs in
      let root = Snfs.Snfs_server.root_fh s in
      { host; root; service = Snfs.Snfs_server.service s; snfs_server = Some s }
  | Rfs ->
      let s = Rfs.Rfs_server.serve rpc host ~fsid fs in
      let root = Rfs.Rfs_server.root_fh s in
      { host; root; service = Rfs.Rfs_server.service s; snfs_server = None }
  | Kent ->
      let s = Kentfs.Kent_server.serve rpc host ~fsid fs in
      let root = Kentfs.Kent_server.root_fh s in
      { host; root; service = Kentfs.Kent_server.service s; snfs_server = None }

type client = {
  fs : Vfs.Fs.t;
  cache : Blockcache.Cache.t;
  snfs_client : Snfs.Snfs_client.t option;
}

let mount rpc ~client ~name { host = server; root; _ } protocol =
  let fs, cache, snfs_client =
    match protocol with
    | Local -> invalid_arg "Stack.mount: Local has no server to mount"
    | Nfs_proto config ->
        let c =
          Nfs.Nfs_client.mount rpc ~client ~server ~root ~config ~name ()
        in
        (Nfs.Nfs_client.fs c, Nfs.Nfs_client.cache c, None)
    | Snfs_proto config ->
        let c =
          Snfs.Snfs_client.mount rpc ~client ~server ~root ~config ~name ()
        in
        (Snfs.Snfs_client.fs c, Snfs.Snfs_client.cache c, Some c)
    | Rfs_proto config ->
        let c =
          Rfs.Rfs_client.mount rpc ~client ~server ~root ~config ~name ()
        in
        (Rfs.Rfs_client.fs c, Rfs.Rfs_client.cache c, None)
    | Kent_proto config ->
        let c =
          Kentfs.Kent_client.mount rpc ~client ~server ~root ~config ~name ()
        in
        (Kentfs.Kent_client.fs c, Kentfs.Kent_client.cache c, None)
  in
  { fs; cache; snfs_client }
