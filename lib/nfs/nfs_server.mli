(** The NFS server: stateless, no open/close, synchronous writes.

    The basic procedures, {!Wire.basic}, and nothing else. The
    statelessness is real: nothing about clients is remembered between
    calls, so crashing and rebooting the host changes nothing (the
    trivial crash recovery of Section 2.4). *)

type t

(** [serve rpc host ~fsid fs] exports local file system [fs] from
    [host] under RPC program {!prog}, with 4 server daemons. *)
val serve : Netsim.Rpc.t -> Netsim.Net.Host.t -> fsid:int -> Localfs.t -> t

val prog : string
val root_fh : t -> Wire.fh
val service : t -> Netsim.Rpc.service
