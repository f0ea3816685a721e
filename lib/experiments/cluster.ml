type t = {
  net : Netsim.Net.t;
  rpc : Netsim.Rpc.t;
  server_host : Netsim.Net.Host.t;
  server_disk : Diskm.Disk.t;
  server_fs : Localfs.t;
}

let create engine =
  let net = Netsim.Net.create engine () in
  let rpc = Netsim.Rpc.create net () in
  let server_host = Netsim.Net.Host.create net "server" in
  let server_disk = Diskm.Disk.create engine "server-disk" in
  let server_fs =
    Localfs.create engine ~name:"serverfs" ~disk:server_disk ~cache_blocks:896
      ~meta_policy:`Sync ()
  in
  { net; rpc; server_host; server_disk; server_fs }

let serve ?recovery_grace t ~fsid kind =
  Stack.serve ~recovery_grace t.rpc t.server_host ~fsid t.server_fs kind

type client = {
  host : Netsim.Net.Host.t;
  stack : Stack.client;
  mounts : Vfs.Mount.t;
}

let mount t server ~host ~name protocol =
  let host = Netsim.Net.Host.create t.net host in
  let stack = Stack.mount t.rpc ~client:host ~name server protocol in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" stack.Stack.fs;
  { host; stack; mounts }
