(** The paper's testbed (Section 5.2): one server with one disk on a
    shared 10 Mb/s LAN, serving one protocol stack to any number of
    client hosts. As with an ns-3 helper, {!create} builds the server
    side, {!serve} installs a stack on it, and each {!mount} adds a
    client host that mounts it.

    No other module in [lib/experiments] or [lib/check] creates a net
    or serves or mounts a {!Stack}. Callers keep only their behaviour:
    syncers, keepalives, the SNFS laundromat, fault schedules and
    workloads. The [fsid] and each mount's [name] are model inputs
    (file handles, traces and metrics carry them), so callers pass
    them. *)

type t = {
  net : Netsim.Net.t;
  rpc : Netsim.Rpc.t;
  server_host : Netsim.Net.Host.t;  (** ["server"] *)
  server_disk : Diskm.Disk.t;  (** ["server-disk"], RA81-class *)
  server_fs : Localfs.t;
      (** ["serverfs"]: 3.5 MB buffer cache, synchronous metadata *)
}

(** The net, the RPC layer, the server host, its disk and its file
    system, created in that order. *)
val create : Sim.Engine.t -> t

(** [serve t ~fsid kind] exports [t.server_fs]. [recovery_grace] is
    passed to the SNFS server and ignored by the others. *)
val serve :
  ?recovery_grace:float -> t -> fsid:int -> Stack.kind -> Stack.server

type client = {
  host : Netsim.Net.Host.t;
  stack : Stack.client;
  mounts : Vfs.Mount.t;  (** [stack.fs] at [/] *)
}

(** [mount t server ~host ~name protocol] creates the host [host] and
    mounts [server] on it with [protocol]'s client, named [name].
    Raises [Invalid_argument] for {!Stack.Local}. *)
val mount :
  t -> Stack.server -> host:string -> name:string -> Stack.protocol -> client
