(** Deterministic structured event tracing.

    Records the life of individual operations — an RPC from client
    issue through retransmissions to reply delivery, a cache block's
    hit/miss/write-back journey, a protocol's callbacks and recovery
    handshakes — as a flat list of timestamped events. Two properties
    the simulator depends on:

    - {b determinism}: timestamps are simulated time and span ids are a
      per-tracer counter; no wall clock, no physical addresses. Two
      runs of the same seeded workload produce byte-identical traces.
    - {b zero overhead when disabled}: probe sites guard on {!on}
      before building argument lists, and every emit function is a
      no-op when no tracer is installed.

    Traces are exported with {!Chrome} (Chrome trace-event JSON, for
    [chrome://tracing] / Perfetto) or consumed directly via {!events}. *)

type value = Str of string | Int of int | Float of float | Bool of bool

(** [Flow_start]/[Flow_end] are Chrome flow events: an arrow from the
    operation that induced work (a callback, recall or invalidation)
    to the place the induced work ran, keyed by the inducing op id. *)
type kind = Begin | End | Instant | Flow_start | Flow_end

type event = {
  ts : float;  (** simulated seconds *)
  cat : string;  (** layer: "rpc", "net", "cache", "snfs", ... *)
  name : string;
  kind : kind;
  track : string;  (** rendered as a thread: host or cache name *)
  id : int;  (** span id; 0 for instants; inducing op id for flows *)
  args : (string * value) list;
}

type t

(** [create ()] makes an unbounded, unsampled tracer whose span ids
    start at 1.

    [id_base] offsets all allocated ids (spans and minted op ids), so
    tracers running on separate campaign slots allocate from disjoint
    ranges and merged traces never collide ({!Experiments.Campaign}).

    [sample_every] enables head-based operation sampling: {!mint}
    keeps one operation in every [sample_every] (by operation ordinal,
    a deterministic per-tracer counter) and drops the rest. Sampling
    is decided at the root, so a kept operation's whole tree is
    recorded and a dropped one's is skipped entirely. The rate is
    recorded in the Chrome export's [trace_config] metadata.

    [limit] (0 = unbounded) turns the tracer into a flight-recorder
    ring holding the newest [limit] events — see {!Flight}. *)
val create : ?id_base:int -> ?sample_every:int -> ?limit:int -> unit -> t

val id_base : t -> int
val sample_every : t -> int

(** The ring bound given at {!create} (0 when unbounded). *)
val limit : t -> int

(** Install [t] as the sink for all probe sites. The slot is
    {e per-domain} (Domain.DLS): an install only affects the calling
    domain, so independent simulations on separate domains
    ({!Experiments.Sweep}) each see their own tracer and never a
    sibling's. *)
val install : t -> unit

val uninstall : unit -> unit

(** Is a tracer installed? Probe sites check this before building
    argument lists, so disabled tracing allocates nothing. *)
val on : unit -> bool

(** The installed tracer, if any (the flight recorder inspects it). *)
val current : unit -> t option

(** [with_tracer t f] runs [f] with [t] installed, uninstalling on the
    way out (also on exceptions). *)
val with_tracer : t -> (unit -> 'a) -> 'a

(** Mint a fresh operation id from the installed tracer: the causal
    identity {!Causal} threads through RPCs and induced work. Returns
    0 when no tracer is installed, -1 when the tracer's head sampling
    dropped this operation, and a fresh positive id otherwise. *)
val mint : unit -> int

(** Point event. *)
val instant :
  ?track:string ->
  ?args:(string * value) list ->
  ts:float ->
  cat:string ->
  name:string ->
  unit ->
  unit

(** A span in progress. When tracing is disabled, {!span} returns a
    dummy that {!finish} ignores. *)
type span

(** The dummy span, for sites that only create a span conditionally. *)
val none : span

val span :
  ?track:string ->
  ?args:(string * value) list ->
  ts:float ->
  cat:string ->
  name:string ->
  unit ->
  span

(** Like {!span} but under a caller-chosen id — used for operation
    root spans, whose id {e is} the minted op id. *)
val span_with_id :
  ?track:string ->
  ?args:(string * value) list ->
  ts:float ->
  cat:string ->
  name:string ->
  id:int ->
  unit ->
  span

val finish : ?args:(string * value) list -> ts:float -> span -> unit

(** Emit the cause end of a flow arrow, keyed by the inducing op id.
    Rendered by Perfetto as an arrow to the matching {!flow_end}. *)
val flow_start :
  ?track:string ->
  ?args:(string * value) list ->
  ts:float ->
  id:int ->
  unit ->
  unit

(** Emit the effect end of a flow arrow, keyed by the inducing op id. *)
val flow_end :
  ?track:string ->
  ?args:(string * value) list ->
  ts:float ->
  id:int ->
  unit ->
  unit

(** Events in chronological (emission) order. For a ring tracer
    ([limit] > 0) only the newest [limit]-ish events are retained. *)
val events : t -> event list

val count : t -> int
