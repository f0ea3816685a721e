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
val dec_attrs : Xdr.Dec.t -> Localfs.attrs

(** Status codes; [Ok] or a [Localfs.error]. *)
val enc_status : Xdr.Enc.t -> (unit, Localfs.error) result -> unit
val dec_status : Xdr.Dec.t -> (unit, Localfs.error) result

(** {2 Procedure names}

    All protocols share the basic NFS-like procedures; SNFS adds
    [p_open]/[p_close] (client to server) and [p_callback] (server to
    client); recovery adds [p_ping]/[p_reopen]. *)

val p_lookup : string
val p_getattr : string
val p_setattr : string
val p_read : string
val p_write : string
val p_create : string
val p_remove : string
val p_open : string
val p_close : string
val p_callback : string
val p_ping : string
val p_reopen : string

(** Procedures that move file data (the "data transfer operations" row
    of Table 5-2). *)
val data_procs : string list

(** {2 Client-side stubs}

    [call] is a closure over the RPC transport, source and destination;
    the stubs marshal arguments, unmarshal results, and raise
    [Localfs.Error] on error status. *)

type call = proc:string -> ?bulk:int -> bytes -> bytes

(** [request call ~proc args] sends the encoded arguments and returns
    the reply past its [Ok] status. *)
val request : call -> proc:string -> Xdr.Enc.t -> Xdr.Dec.t

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

(** SNFS open reply (Section 3.1). *)
type open_reply = {
  cache_enabled : bool;
  version : int;
  prev_version : int;
  attrs : Localfs.attrs;
}

val snfs_open : call -> fh -> write_mode:bool -> open_reply
val snfs_close : call -> fh -> write_mode:bool -> unit

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

(** {2 Replies} *)

val reply_of : Xdr.Enc.t -> Netsim.Rpc.reply

(** A fresh encoder holding the [Ok] status. *)
val ok_enc : unit -> Xdr.Enc.t

val error_reply : Localfs.error -> Netsim.Rpc.reply

(** A block's (stamp, length); the data rides as [len] bulk bytes. *)
val read_reply : stamp:int -> len:int -> Netsim.Rpc.reply

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

(** {2 The one serve site} *)

type server

(** [serve rpc host ~prog ~threads core dispatch] registers [prog] on
    [host] with [threads] daemons (at least 2). [dispatch ~caller ~ctx
    ~proc args] serves the protocol's own procedures, given the
    caller's address and the request's causal context, and returns
    {!pass} for the rest: those go to the basic procedures of [core],
    and an unknown one gets [Error Stale] — how a hybrid client learns
    that a plain NFS server does not speak SNFS (Section 6.1). *)
val serve :
  Netsim.Rpc.t -> Netsim.Net.Host.t -> prog:string -> threads:int ->
  server_core ->
  (caller:int -> ctx:Obs.Causal.t -> proc:string -> Xdr.Dec.t ->
   Netsim.Rpc.reply) ->
  server

val pass : Netsim.Rpc.reply
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

(** [callback srv ~impatient ~ctx ~target ~proc ~instant body] calls
    [proc] of [target]'s callback program with [body] under [ctx], the
    inducing operation's causal context. If that may be traced,
    [instant ()] emits the caller's trace instant, then the flow arrow
    to the induced work starts. [impatient] picks
    {!Netsim.Rpc.impatient}'s retry schedule. False when the call
    times out (the client is down or cut off). *)
val callback :
  server -> impatient:bool -> ctx:Obs.Causal.t -> target:Netsim.Net.Host.t ->
  proc:string -> instant:(unit -> unit) -> Xdr.Enc.t -> bool
