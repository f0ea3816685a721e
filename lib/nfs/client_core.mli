(** The client half every remote protocol shares: the GFS-to-RPC layer
    of Section 4.1, the client-side twin of {!Wire.serve}.

    The paper built SNFS by changing the NFS client's open, close,
    attribute and callback handling and reusing the rest. This module
    is that rest, written once for NFS, SNFS, RFS and Kent: the
    transport stub, causal roots, the gnode table, the block cache and
    its RPC backend, the namespace operations, the cached block path
    with one-block read-ahead, and the {!Vfs.Fs.t} record. It never
    asks which protocol it serves; a protocol supplies its behaviour as
    a {!policy} and its open, close, getattr, setattr and block
    operations to {!attach}. *)

(** A file this client knows. ['p] is the protocol's own per-file
    state. *)
type 'p gnode = {
  g_ino : int;
  g_gen : int;
  mutable g_attrs : Localfs.attrs;
  mutable g_last_read : int;  (** the sequential-read detector *)
  g_proto : 'p;
}

(** Which reply brought a known file's attributes: a lookup, a create,
    mkdir or getattr reply of the core, or a write-back reply. *)
type arrival = Lookup | Reply | Write

type 'p t

type 'p policy = {
  prog : string;  (** the server's RPC program *)
  cat : string;
      (** trace category of {!proto_event}, and prefix of the
          read-ahead process name *)
  fresh : Sim.Engine.t -> Localfs.attrs -> 'p;
      (** per-file state of a file seen for the first time; also called
          once by {!create}, for the gnode table's empty sentinel *)
  merge : 'p t -> Obs.Causal.t -> arrival -> 'p gnode -> Localfs.attrs -> unit;
      (** attributes arrived for a known file: fold them into its
          gnode *)
  on_remove : 'p gnode -> unit;
      (** runs when a known file is removed, before its cached blocks
          are dropped *)
}

(** [create policy rpc ~client ~server ~root ~name ...] builds the
    client and its block cache (["<name>.cache"]). Every RPC rides out
    server outages for [retry_budget] seconds when it is set; raises
    [Invalid_argument] when that budget is not positive. *)
val create :
  'p policy ->
  Netsim.Rpc.t ->
  client:Netsim.Net.Host.t ->
  server:Netsim.Net.Host.t ->
  root:Wire.fh ->
  name:string ->
  cache_blocks:int ->
  retry_budget:float option ->
  'p t

(** [attach t ...] completes the {!Vfs.Fs.t} record with the
    protocol's own operations; the core supplies root, the namespace
    operations and fsync. *)
val attach :
  'p t ->
  getattr:(Vfs.Fs.vn -> Localfs.attrs) ->
  setattr:(Vfs.Fs.vn -> size:int -> unit) ->
  fs_open:(Vfs.Fs.vn -> Vfs.Fs.open_mode -> unit) ->
  fs_close:(Vfs.Fs.vn -> Vfs.Fs.open_mode -> unit) ->
  read_block:(Vfs.Fs.vn -> index:int -> int * int) ->
  write_block:(Vfs.Fs.vn -> index:int -> stamp:int -> len:int -> unit) ->
  unit

(** The GFS interface; only valid after {!attach}. *)
val fs : 'p t -> Vfs.Fs.t

val cache : 'p t -> Blockcache.Cache.t
val engine : 'p t -> Sim.Engine.t

(** The client host's name: the trace track and metric [host] label. *)
val host : 'p t -> string

(** The known file with this inode number, if any. *)
val find_opt : 'p t -> int -> 'p gnode option

(** [fold f t acc] folds [f] over the known files, in no particular
    order: callers whose output could show it sort. *)
val fold : ('p gnode -> 'acc -> 'acc) -> 'p t -> 'acc -> 'acc

(** [call t ctx] is the {!Wire.call} stub that stamps every RPC of one
    client operation with its causal context. *)
val call : 'p t -> Obs.Causal.t -> Wire.call

(** [op t name f] runs one GFS operation under a fresh causal root
    ({!Obs.Causal.root}); [f] threads the context through every RPC,
    cache and disk touch the operation makes. *)
val op : 'p t -> string -> (Obs.Causal.t -> 'a) -> 'a

(** [serve_callbacks t ~ping p callback] registers the client's
    callback service, {!Wire.callback_prog} of [policy.prog] and the
    root fsid. A [p] call runs [callback args]: it returns the inducing
    operation's id ([cb_ctx]) with what the callback does to the cache,
    which runs after the operation's flow arrow ends here; the reply is
    [Ok]. With [ping], a [ping] gets the host's boot epoch. Any other
    procedure gets [Error Stale]. *)
val serve_callbacks :
  'p t -> ping:bool -> ('a, unit) Wire.procedure ->
  ('a -> int * (Obs.Causal.t -> unit)) -> unit

(** A protocol instant on the client's trace track, when tracing. *)
val proto_event : 'p t -> string -> (string * Obs.Trace.value) list -> unit

(** The gnode a vnode names; [Invalid_argument] if unknown. *)
val gnode : 'p t -> Vfs.Fs.vn -> 'p gnode

val fh_of : 'p t -> 'p gnode -> Wire.fh

(** Write back the file's dirty blocks and wait out its write-behinds. *)
val flush : ?ctx:Obs.Causal.t -> 'p t -> 'p gnode -> unit

(** Wait out the file's write-behinds, then drop its dirty blocks. *)
val drop : 'p t -> 'p gnode -> unit

(** Read a block through the cache ((0, 0) past end of file), starting
    a one-block read-ahead on sequential access. *)
val cached_read : 'p t -> Obs.Causal.t -> 'p gnode -> index:int -> int * int

(** Write a block into the cache and grow the local size to cover it;
    the authoritative size returns on the write reply. *)
val cached_write :
  'p t ->
  Obs.Causal.t ->
  'p gnode ->
  index:int ->
  stamp:int ->
  len:int ->
  [ `Async | `Delayed ] ->
  unit
