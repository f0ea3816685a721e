(** Wire format shared by the NFS, SNFS, and RFS protocols.

    Everything here is XDR-marshalled for real (see {!Xdr}); simulated
    message sizes are the honest encoded sizes. File *data* is carried
    as a (stamp, length) pair plus [bulk] payload bytes accounted by
    the RPC layer, so an 8 KB read reply really occupies 8 KB of
    simulated wire time without us shuffling 8 KB of host memory.

    The SNFS extensions (Section 3 of the paper) are the [open],
    [close] and [callback] procedures and the version numbers in the
    open reply. *)

(** File handle: opaque to clients, meaningful to the server. *)
type fh = { fsid : int; ino : int; gen : int }

val enc_fh : Xdr.Enc.t -> fh -> unit
val dec_fh : Xdr.Dec.t -> fh

val enc_attrs : Xdr.Enc.t -> Localfs.attrs -> unit

(** Status codes; [Ok] or a [Localfs.error]. *)
val enc_status : Xdr.Enc.t -> (unit, Localfs.error) result -> unit
val dec_status : Xdr.Dec.t -> (unit, Localfs.error) result

(** Callback arguments (Section 3.2), server-to-client. [cb_ctx] is
    the causal context of the client operation that induced the
    callback (0 = none), so the receiving client tags the induced work
    with the inducing operation. *)
type callback_args = {
  cb_fh : fh;
  cb_writeback : bool;
  cb_invalidate : bool;
  cb_ctx : int;
}

val enc_callback : Xdr.Enc.t -> callback_args -> unit
val dec_callback : Xdr.Dec.t -> callback_args

(** SNFS open reply (Section 3.1). *)
type open_reply = {
  cache_enabled : bool;
  version : int;
  prev_version : int;
  attrs : Localfs.attrs;
}

(** {2 Procedures}

    Each procedure is described once, and its client stub and server
    handler both use that description: its name, its argument and
    result formats, and the bulk payload bytes (file data accounted by
    the RPC layer, not marshalled) of each, its arguments' as the
    call's [?bulk]. On the wire a result follows an [Ok] status; an
    error status is the whole reply. *)

type ('a, 'r) procedure = {
  name : string;
  args : 'a Xdr.codec;
  res : 'r Xdr.codec;
  args_bulk : 'a -> int option;
  res_bulk : 'r -> int;
}

(** [proc name args res] carries no bulk payload. *)
val proc : string -> 'a Xdr.codec -> 'r Xdr.codec -> ('a, 'r) procedure

val fh_codec : fh Xdr.codec

(** All protocols share the basic NFS-like procedures. [read] returns
    a block's (stamp, length), and [write] takes (index, stamp,
    length): the block rides as [length] bulk bytes. SNFS adds
    [snfs_open] and [close] (file, write mode), [callback] (server to
    client), and for recovery [ping] (either way; the reply is the
    host's boot epoch) and [reopen], one ((file, readers, writers),
    (cachable, dirty, version)) per file the client holds state for.
    RFS's [rfs_open] returns (version, attributes); it shares SNFS's
    [close] and [callback]. *)
module Proc : sig
  val lookup : (fh * string, fh * Localfs.attrs) procedure
  val create : (fh * string, fh * Localfs.attrs) procedure
  val getattr : (fh, Localfs.attrs) procedure
  val setattr : (fh * int, Localfs.attrs) procedure
  val read : (fh * int, int * int) procedure
  val write : (fh * (int * int * int), Localfs.attrs) procedure
  val remove : (fh * string, unit) procedure
  val snfs_open : (fh * bool, open_reply) procedure
  val rfs_open : (fh * bool, int * Localfs.attrs) procedure
  val close : (fh * bool, unit) procedure
  val ping : (unit, int) procedure
  val reopen : (((int * int * int) * (bool * bool * int)) list, unit) procedure
  val callback : (callback_args, unit) procedure
end

(** Procedures that move file data (the "data transfer operations" row
    of Table 5-2). *)
val data_procs : string list

(** {2 Client-side stubs}

    [call] is a closure over the RPC transport, source and destination.
    [invoke call p args] calls [p] and returns its result, or raises
    [Localfs.Error] on an error status; a reply with bytes after the
    result raises [Xdr.Error]. The stubs below are its shorthands. *)

type call = proc:string -> ?bulk:int -> bytes -> bytes

val invoke : call -> ('a, 'r) procedure -> 'a -> 'r

val lookup : call -> dir:fh -> string -> fh * Localfs.attrs
val getattr : call -> fh -> Localfs.attrs
val setattr : call -> fh -> size:int -> Localfs.attrs
val read : call -> fh -> index:int -> int * int
val write : call -> fh -> index:int -> stamp:int -> len:int -> Localfs.attrs
val create : call -> dir:fh -> string -> fh * Localfs.attrs
val remove : call -> dir:fh -> string -> unit
val mkdir : call -> dir:fh -> string -> fh * Localfs.attrs
val rmdir : call -> dir:fh -> string -> unit
val rename : call -> fromdir:fh -> string -> todir:fh -> string -> unit
val readdir : call -> fh -> string list
val snfs_open : call -> fh -> write_mode:bool -> open_reply
val snfs_close : call -> fh -> write_mode:bool -> unit

(** {2 Server-side handlers} *)

(** A procedure table entry: the procedure's name and its handler. *)
type entry = string * Netsim.Rpc.handler

(** [serves p f] is [p]'s entry: it decodes [p]'s arguments (raising
    [Xdr.Error] if a byte is left over), runs [f] with the caller's
    address and the request's causal context, and replies with [f]'s
    result, or with the error status when [f] raises [Localfs.Error]. *)
val serves :
  ('a, 'r) procedure -> (caller:int -> ctx:Obs.Causal.t -> 'a -> 'r) -> entry

(** [before p f procs] is [procs] with a prologue on [p]'s entry: [f]
    runs on a request's decoded arguments, then the entry's own
    handler on the request; a [Localfs.Error] from [f] is the reply
    instead. A request with a byte left over raises [Xdr.Error] before
    [f] runs, as {!serves} does, so [f] never acts on a request the
    handler rejects. *)
val before :
  ('a, 'r) procedure -> (caller:int -> ctx:Obs.Causal.t -> 'a -> unit) ->
  entry list -> entry list

(** The handler of a procedure no entry names: [Error Stale] — how a
    hybrid client learns that a plain NFS server does not speak SNFS
    (Section 6.1). *)
val unknown : Netsim.Rpc.handler

(** {2 Server-side core}

    The basic procedures against a {!Localfs} — the "service code
    simply translates RPC requests into GFS operations" layer of
    Section 4.1. Data writes reach the disk before the reply (Section
    2.3). *)

type server_core

(** The hooks receive [ctx], the causal context of the triggering
    client operation, so induced consistency work (RFS invalidations)
    is attributed to it. *)
val make_server_core :
  fsid:int ->
  Localfs.t ->
  ?on_read:(ino:int -> caller:int -> ctx:Obs.Causal.t -> unit) ->
  ?on_write:(ino:int -> caller:int -> ctx:Obs.Causal.t -> unit) ->
  ?on_remove:(ino:int -> ctx:Obs.Causal.t -> unit) ->
  unit ->
  server_core

val core_fsid : server_core -> int
val core_fs : server_core -> Localfs.t

(** Root file handle of the served file system. *)
val root_fh : server_core -> fh

(** The entries of the basic procedures of [core]. *)
val basic : server_core -> entry list

(** {2 The one serve site} *)

type server

(** [serve rpc host ~prog ~threads core procs] registers [prog] on
    [host] with [threads] daemons (at least 2) and the procedure table
    [procs]: the protocol's own entries, then {!basic} [core], so a
    protocol entry replaces the basic one of its name; a procedure
    [procs] does not name gets {!unknown}. *)
val serve :
  Netsim.Rpc.t -> Netsim.Net.Host.t -> prog:string -> threads:int ->
  server_core -> entry list -> server

val service : server -> Netsim.Rpc.service

(** [threads - 1] units, held per batch of callbacks or per callback,
    so a thread stays free for the write-backs they provoke (the
    deadlock of Section 3.2). *)
val callback_tokens : server -> Sim.Semaphore.t

(** The client host at an address. *)
val client : server -> int -> Netsim.Net.Host.t

(** A trace instant now on the server host's track, when tracing. *)
val event :
  server -> cat:string -> name:string -> (string * Obs.Trace.value) list -> unit

(** {2 The one callback channel} *)

(** ["<prog>_cb.<fsid>"]: a client's callback program. *)
val callback_prog : prog:string -> fsid:int -> string

(** [callback srv ~impatient ~ctx ~target ~instant p args] calls [p]
    of [target]'s callback program with [args] under [ctx], the
    inducing operation's causal context; the reply is not read. If
    that may be traced, [instant ()] emits the caller's trace instant,
    then the flow arrow to the induced work starts. [impatient] picks
    {!Netsim.Rpc.impatient}'s retry schedule. False when the call
    times out (the client is down or cut off). *)
val callback :
  server -> impatient:bool -> ctx:Obs.Causal.t -> target:Netsim.Net.Host.t ->
  instant:(unit -> unit) -> ('a, 'r) procedure -> 'a -> bool
