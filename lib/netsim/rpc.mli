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

    The transport is the paper's testbed (Section 5.2), fixed: a call
    retransmits after 1 s, doubling, up to 5 times (about 63 s before
    {!Timeout}); each call costs 2 ms of CPU at the client and 2 ms at
    the server, and both ends pay 3 ms per KB of request and reply
    payload.

    Executed calls are counted per procedure name; the tables of the
    paper are read off these counters. While a metrics registry is
    installed, executed calls, retransmissions, timeouts and the
    duplicates the duplicate-request cache absorbs are also counted
    there, and every call's round-trip time is observed (see
    {!latency_table}). *)

type t

val create : Net.t -> unit -> t

val net : t -> Net.t

(** Raised by {!call} when all retransmissions time out (the server or
    client host may be down, or the network is dropping messages). *)
exception Timeout of { prog : string; proc : string }

(** Raised by {!call} when a retry budget is given and the server
    stayed unreachable for the whole budget: [waited] seconds of
    complete call rounds (each itself a full retransmission schedule)
    separated by bounded exponential backoff. *)
exception Server_unavailable of { prog : string; proc : string; waited : float }

(** Reply from a handler: marshalled result plus [bulk] unmarshalled
    payload bytes (file data) that count toward message size. *)
type reply = { data : bytes; bulk : int }

(** One procedure's server side, from its arguments to its reply.
    [ctx] is the causal context of the client operation this request
    serves ({!Obs.Causal.none} for background traffic) — an explicit
    field of the simulated request header, threaded rather than
    ambient, so handlers tag their work (and the work they induce)
    with the inducing operation. *)
type handler = caller:Net.Host.t -> ctx:Obs.Causal.t -> Xdr.Dec.t -> reply

type service

(** [serve t host ~prog ~threads ~unknown procs] registers program
    [prog] on [host] with [threads] worker threads; [Invalid_argument]
    if [host] serves [prog] already. A request runs the handler of the
    first entry of [procs] that names its procedure, or [unknown]:
    looked up at a procedure's first call, which makes its counter
    cell. A request the duplicate-request cache lets through starts on
    an idle thread, in a process spawned at its arrival. With every
    thread busy it waits in a FIFO backlog, as a queue slot rather than
    a process, and the next thread to finish takes it up in its own
    process, at the instant of that finish. A retransmission of a
    waiting request is dropped, and the request's traced [queued] time
    runs from its first arrival. *)
val serve :
  t -> Net.Host.t -> prog:string -> threads:int -> unknown:handler ->
  (string * handler) list -> service

val service_host : service -> Net.Host.t

(** The program name the service was registered under. *)
val service_prog : service -> string

(** Counts of calls actually executed (duplicates suppressed), by
    procedure name. *)
val counters : service -> Stats.Counter.t

(** Invoked when the service first receives traffic after its host
    rebooted; protocol layers reset volatile state here. *)
val set_on_restart : service -> (unit -> unit) -> unit

(** [call t ~src ~dst ~prog ~proc ?bulk args] performs a remote call
    from process context: marshalled [args] (plus [bulk] payload bytes)
    travel to [dst], the handler runs there, and the marshalled reply
    comes back. Blocks the calling process for the full round trip.
    Raises {!Timeout} on persistent failure.

    [~impatient:true] gives up after 4 retransmissions (about 31 s)
    instead of 5, for calls whose failure must be detected before the
    caller's own caller times out: SNFS and Kent callbacks to possibly
    dead clients (Section 3.2).

    With [?budget] (seconds), a {!Timeout} instead starts a new round
    after an exponential backoff, 0.5 s doubling up to 30 s, until the
    next backoff would overrun [budget] seconds since the first
    attempt; then {!Server_unavailable} escapes. Size the budget to
    exceed the longest outage worth riding out (a server reboot plus
    its grace period), since the caller blocks for all of it. Each
    round is a fresh call with a fresh XID, so a round whose reply was
    merely lost can be re-executed at the server (within one round the
    duplicate-request cache still deduplicates retransmissions):
    budgeted calls should be idempotent, which NFS-style procedures
    are.

    [?ctx] (default {!Obs.Causal.none}) is the issuing operation's
    causal context: it tags the call's client span and rides the
    request to the server handler. *)
val call :
  t ->
  ?impatient:bool ->
  ?ctx:Obs.Causal.t ->
  src:Net.Host.t ->
  dst:Net.Host.t ->
  prog:string ->
  proc:string ->
  ?budget:float ->
  ?bulk:int ->
  bytes ->
  bytes

(** The per-procedure round-trip latency table of the calls recorded
    in [m]: one row per (procedure, outcome) with n and the mean, p50,
    p90, p99 and max in ms. [call] records every round trip it makes
    while a registry is installed, as the histogram
    [rpc_latency_seconds{prog, proc, outcome}], where [outcome] is
    [ok], or [timeout] when the retransmission schedule ran out. *)
val latency_table : Obs.Metrics.t -> string
