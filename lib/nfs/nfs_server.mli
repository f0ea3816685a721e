(** The NFS server: stateless, no open/close, synchronous writes.

    Thin wrapper tying a {!Wire.server_core} to an RPC service. The
    statelessness is real: nothing about clients is remembered between
    calls, so crashing and rebooting the host changes nothing (the
    trivial crash recovery of Section 2.4). *)

type t

(** [serve rpc host fs] exports local file system [fs] from [host]
    under RPC program {!prog}. [threads] is the server daemon count. *)
val serve :
  Netsim.Rpc.t -> Netsim.Net.Host.t -> ?threads:int -> fsid:int -> Localfs.t -> t

val prog : string
val root_fh : t -> Wire.fh
val service : t -> Netsim.Rpc.service

(** RPC-operation counters (Tables 5-2, 5-4, 5-6). *)
val counters : t -> Stats.Counter.t
