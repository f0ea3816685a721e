(** ONC-RPC-like transport over {!Net}.

    Matches the structure the paper depends on:
    - clients retransmit on timeout (same XID, exponential backoff);
    - servers keep a duplicate-request cache so retried calls (for
      example retried SNFS callbacks, Section 3.2) are not re-executed;
    - a server program runs on a bounded thread pool, and any host can
      be both client and server (SNFS servers call back into clients);
    - per-message CPU time is charged to both hosts' CPU resources, and
      message bytes are honest (XDR-marshalled args plus declared bulk
      data), so network transmission times are meaningful.

    Executed calls are counted per procedure name; the tables of the
    paper are read off these counters. While a metrics registry is
    installed, executed calls, retransmissions, timeouts and the
    duplicates the duplicate-request cache absorbs are also counted
    there, and every call's round-trip time is observed (see
    {!latency_table}). *)

type t

type config = {
  timeout : float;  (** initial retransmission timeout, seconds *)
  retries : int;  (** retransmissions before giving up *)
  backoff : float;  (** timeout multiplier per retry *)
  client_cpu_per_call : float;  (** send + receive cost at the client *)
  server_cpu_per_call : float;  (** receive + send cost at the server *)
  cpu_per_kbyte : float;  (** marginal cost of touching payload bytes *)
}

val create : Net.t -> ?config:config -> unit -> t

val net : t -> Net.t
val config : t -> config

(** Raised by {!call} when all retransmissions time out (the server or
    client host may be down, or the network is dropping messages). *)
exception Timeout of { prog : string; proc : string }

(** Raised by {!call} when a retry {!budget} is given and the server
    stayed unreachable for the whole budget: [waited] seconds of
    complete call rounds (each itself a full retransmission schedule)
    separated by bounded exponential backoff. *)
exception Server_unavailable of { prog : string; proc : string; waited : float }

(** A patience budget for {!call}: on [Timeout], sleep out a bounded
    exponential backoff and try again with a fresh call, until the next
    backoff would overrun [give_up_after] seconds since the first
    attempt — then raise {!Server_unavailable}. *)
type budget = {
  give_up_after : float;  (** total seconds before giving up *)
  initial_backoff : float;  (** first inter-round sleep *)
  max_backoff : float;  (** backoff ceiling *)
}

(** [budget give_up_after] with a 0.5 s initial backoff doubling up to
    30 s. Raises [Invalid_argument] on non-positive arguments; the
    ceiling is clamped to at least [initial_backoff]. Size the budget
    to exceed the longest outage worth riding out (a server reboot plus
    its grace period), since the caller blocks for all of it. *)
val budget : ?initial_backoff:float -> ?max_backoff:float -> float -> budget

(** Reply from a handler: marshalled result plus [bulk] unmarshalled
    payload bytes (file data) that count toward message size. *)
type reply = { data : bytes; bulk : int }

(** [ctx] is the causal context of the client operation this request
    serves ({!Obs.Causal.none} for background traffic) — an explicit
    field of the simulated request header, threaded rather than
    ambient, so handlers tag their work (and the work they induce)
    with the inducing operation. *)
type handler =
  caller:Net.Host.t -> ctx:Obs.Causal.t -> proc:string -> Xdr.Dec.t -> reply

type service

(** [serve t host ~prog ~threads handler] registers program [prog] on
    [host] with a pool of [threads] worker threads. Re-registering an
    existing program replaces its handler (used by hybrid servers). *)
val serve : t -> Net.Host.t -> prog:string -> threads:int -> handler -> service

val service_host : service -> Net.Host.t

(** The program name the service was registered under. *)
val service_prog : service -> string

(** Counts of calls actually executed (duplicates suppressed), by
    procedure name. *)
val counters : service -> Stats.Counter.t

(** [proc_name svc proc] is ["prog.proc"], the name [svc]'s request
    processes run under. The first lookup of a procedure, by a call or
    by this function, resolves its name and its cell in {!counters}
    (at 0 until a call runs); later lookups allocate nothing. *)
val proc_name : service -> string -> string

(** Invoked when the service first receives traffic after its host
    rebooted; protocol layers reset volatile state here. *)
val set_on_restart : service -> (unit -> unit) -> unit

(** [call t ~src ~dst ~prog ~proc ?bulk args] performs a remote call
    from process context: marshalled [args] (plus [bulk] payload bytes)
    travel to [dst], the handler runs there, and the marshalled reply
    comes back. Blocks the calling process for the full round trip.
    Raises {!Timeout} on persistent failure.

    With [?budget], a {!Timeout} instead starts a new round after a
    bounded exponential backoff (see {!budget}), and only
    {!Server_unavailable} escapes, after the budget is spent. Each
    round is a fresh call with a fresh XID, so a round whose reply was
    merely lost can be re-executed at the server (within one round the
    duplicate-request cache still deduplicates retransmissions):
    budgeted calls should be idempotent, which NFS-style procedures
    are.

    [?ctx] (default {!Obs.Causal.none}) is the issuing operation's
    causal context: it tags the call's client span, rides the request
    to the server handler, and suppresses the call's spans entirely
    when the operation was sampled out. *)
val call :
  t ->
  ?config:config ->
  ?ctx:Obs.Causal.t ->
  src:Net.Host.t ->
  dst:Net.Host.t ->
  prog:string ->
  proc:string ->
  ?budget:budget ->
  ?bulk:int ->
  bytes ->
  bytes

(** A config with a short retry schedule, for calls whose failure must
    be detected promptly (SNFS callbacks to possibly-dead clients,
    Section 3.2). *)
val impatient : config -> config

(** The per-procedure round-trip latency table of the calls recorded
    in [m]: one row per (procedure, outcome) with n and the mean, p50,
    p90, p99 and max in ms. [call] records every round trip it makes
    while a registry is installed, as the histogram
    [rpc_latency_seconds{prog, proc, outcome}], where [outcome] is
    [ok], or [timeout] when the retransmission schedule ran out. *)
val latency_table : Obs.Metrics.t -> string
