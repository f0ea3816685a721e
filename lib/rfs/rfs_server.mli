(** An RFS-style server (paper Section 2.5): the intermediate point
    between NFS and Sprite.

    Like SNFS the server is stateful — clients send open and close and
    the server knows who may be caching — but like NFS the clients
    write *through*, so the server's copy is always current and the
    only possible inconsistency is between the server and readers.
    Unlike SNFS, the server waits until a write actually occurs before
    invalidating reader caches. Version numbers revalidate caches on
    reopen. *)

type t

val prog : string

(** Serve [fs] with 4 server threads. *)
val serve : Netsim.Rpc.t -> Netsim.Net.Host.t -> fsid:int -> Localfs.t -> t

val root_fh : t -> Nfs.Wire.fh
val service : t -> Netsim.Rpc.service
