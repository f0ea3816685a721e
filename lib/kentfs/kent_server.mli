(** Block-granularity cache consistency, after Kent's design (the
    paper's Section 2.5 / reference [4]): before a client writes a
    block it must acquire *ownership* of that block; other clients'
    cached copies of the block are invalidated, and only one client at
    a time owns a block.

    Kent's implementation needed special hardware "to implement the
    consistency protocol with sufficient performance" — this software
    rendition lets the simulation show why: every first write to a
    block costs an [acquire] round trip, while reads of a block owned
    elsewhere trigger a recall callback. In exchange, write-sharing
    does not disable caching (as SNFS's whole-file policy does) —
    clients sharing *different blocks* of a file keep full
    delayed-write performance.

    Per-(file, block) server state: the owner (if any) and the copy
    set of clients that may hold clean copies. Namespace operations are
    the shared NFS ones; attributes are not cached by clients (the
    logical size advances at acquire time, so readers always learn the
    current extent). *)

type t

val prog : string
val client_prog_for : int -> string

(** Acquire-ownership procedure name (the protocol's one addition to
    the shared wire vocabulary). *)
val p_acquire : string

(** Serve [fs] with 8 server threads. Ownership recalls and copy
    invalidations sent count in the metrics registry as
    [kent_recalls_sent_total] and [kent_invalidations_sent_total]. *)
val serve : Netsim.Rpc.t -> Netsim.Net.Host.t -> fsid:int -> Localfs.t -> t

val root_fh : t -> Nfs.Wire.fh
val service : t -> Netsim.Rpc.service
