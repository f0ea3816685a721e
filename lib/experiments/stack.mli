(** The one place a protocol stack is wired.

    {!serve} and {!mount} are the only code in [lib/experiments] that
    names a protocol's [serve] or [mount], and {!Cluster} is their only
    caller: the experiments, the consistency oracle and tests, and the
    write-sharing example get a served stack and its client mounts from
    it. Adding a protocol means adding one case here.

    {!Cluster} fixes the server's host, disk and file-system names.
    Its callers pass the model inputs, the [fsid] and each mount's
    name, and keep their behaviour: which clients run a syncer or
    keepalive, the SNFS laundromat, and any config override. *)

(** The protocols with no configuration attached. *)
type kind = Nfs | Snfs | Rfs | Kent

(** [Nfs; Snfs; Rfs; Kent]. *)
val kinds : kind list

(** ["nfs"], ["snfs"], ["rfs"], ["kent"]: the command-line spelling,
    and each client's default name. *)
val kind_name : kind -> string

(** A protocol and its client configuration, or the client's own local
    file system. *)
type protocol =
  | Local
  | Nfs_proto of Nfs.Nfs_client.config
  | Snfs_proto of Snfs.Snfs_client.config
  | Rfs_proto of Rfs.Rfs_client.config
  | Kent_proto of Kentfs.Kent_client.config

(** ["local"], ["NFS"], ["SNFS"], ["RFS"], ["Kent"]: the label reports
    print. *)
val protocol_name : protocol -> string

(** [None] for {!Local}. *)
val kind_of : protocol -> kind option

(** The kind with its default client configuration. *)
val default : kind -> protocol

(** The named configurations the command line and the standard
    campaign offer, in campaign order: local, nfs, nfs-fixed (no
    invalidate-on-close bug), snfs, snfs-dc (delayed close), rfs, kent. *)
val presets : (string * protocol) list

(** Override the retry budget of a remote protocol's config. *)
val with_retry_budget : float option -> protocol -> protocol

type server = {
  host : Netsim.Net.Host.t;  (** where {!mount} sends its RPCs *)
  root : Nfs.Wire.fh;  (** the exported root that {!mount} attaches *)
  service : Netsim.Rpc.service;
      (** the server's RPC service: per-procedure call counters *)
  snfs_server : Snfs.Snfs_server.t option;  (** SNFS only *)
}

(** [serve ~recovery_grace rpc host ~fsid fs kind] exports [fs] from
    [host], for {!Cluster.serve}. *)
val serve :
  recovery_grace:float option ->
  Netsim.Rpc.t ->
  Netsim.Net.Host.t ->
  fsid:int ->
  Localfs.t ->
  kind ->
  server

type client = {
  fs : Vfs.Fs.t;  (** the protocol client's own file system, unwrapped *)
  cache : Blockcache.Cache.t;
  snfs_client : Snfs.Snfs_client.t option;  (** SNFS only *)
}

(** [mount rpc ~client ~name server protocol] mounts [server] on host
    [client] with the protocol's client. Raises [Invalid_argument] for
    {!Local}. *)
val mount :
  Netsim.Rpc.t ->
  client:Netsim.Net.Host.t ->
  name:string ->
  server ->
  protocol ->
  client
