(** Causal request context.

    A client operation (an [open], [read], [close]...) mints a context
    at its entry point; every layer it crosses — RPC transport, server
    dispatch, disk I/O, block caches — and every piece of work it
    {e induces} on other hosts (SNFS callbacks, RFS invalidations,
    Kent recalls) carries the context along, tagging its trace spans
    with the operation id. The context is {b threaded, not ambient}:
    it travels as an explicit argument (and as a field in the
    marshalled callback payloads, see {!Nfs.Wire.callback_args}), so
    determinism and the Domain-isolation story of {!Trace} are
    untouched.

    The carrier is a bare [int]: 0 = no context ({!none}), positive =
    the operation id (also the id of the operation's root span). *)

type t = int

(** The empty context: tracing off, or background work no single
    operation caused. *)
val none : t

(** A real operation id (positive)? *)
val live : t -> bool

(** The operation id (only meaningful when {!live}). *)
val id : t -> int

(** Rebuild a context from a marshalled id; non-positive ids collapse
    to {!none}. *)
val of_id : int -> t

(** [arg c args] prepends [("op", Int (id c))] when [c] is live. *)
val arg : t -> (string * Trace.value) list -> (string * Trace.value) list

(** [root ~now ~track ~name f] runs [f ctx] as a root client
    operation: mints a context and, while tracing is on, wraps [f] in
    the operation's root span (cat ["op"], span id = op id).
    [now] is only consulted while tracing is on. *)
val root :
  now:(unit -> float) -> track:string -> name:string -> (t -> 'a) -> 'a
