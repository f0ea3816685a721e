(** Discrete-event simulation engine with a process model.

    The engine owns a virtual clock and an event queue. Processes are
    ordinary OCaml functions run under an effect handler; inside a
    process, {!sleep} and {!suspend} block the process (in virtual
    time) without blocking the host program. All scheduling is
    deterministic: simultaneous events fire in the order they were
    scheduled. *)

type t

val create : unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** Number of events the dispatch loop has executed since [create].
    Campaign runs report it as [events]; it is also exported to the
    metrics registry as the cumulative poll [sim_events_total], which
    [perfbench/] reports as [sim.events]. *)
val events_executed : t -> int

(** [at t time fn] schedules callback [fn] at absolute virtual [time].
    Raises [Invalid_argument] if [time] is in the past. *)
val at : t -> float -> (unit -> unit) -> unit

(** [after t delay fn] schedules [fn] to run [delay] seconds from now. *)
val after : t -> float -> (unit -> unit) -> unit

(** [timer t delay fn] is {!after} for watchdogs: same semantics and
    the same global execution order, but the event waits in a FIFO
    lane kept for [delay] alone rather than in the event heap. Use it
    for long-dated timeouts that are usually obsolete by the time they
    fire (RPC retransmission timers), with few distinct delays: each
    new delay makes a lane, and dispatch scans the lanes whenever one's
    earliest event fires. Keeping watchdogs out of the heap keeps the
    sift depth of the busy events independent of how many are
    outstanding. Raises [Invalid_argument] on negative delay. *)
val timer : t -> float -> (unit -> unit) -> unit

(** [spawn t fn] creates a new process executing [fn]. The process
    starts when the engine next reaches the head of its event queue (it
    never runs synchronously inside [spawn]). [name] is used in error
    reports. A process that has returned leaves its fiber (up to 64 of
    them) parked for a later [spawn] to reuse, until {!run} or
    {!run_until} returns. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Run until the event queue drains or {!stop} is called. Exceptions
    raised by processes propagate out of [run]. *)
val run : t -> unit

(** Halt {!run} / {!run_until} after the current event. Daemon
    processes (periodic syncers, keepalive loops) keep the event queue
    populated forever, so a driver whose work is done calls [stop].
    The engine can be run again afterwards. *)
val stop : t -> unit

(** Run until the given virtual time (events strictly later stay
    queued, and the clock is left at the limit). *)
val run_until : t -> float -> unit

(** {2 Operations usable only inside a process} *)

(** Block the calling process for the given virtual duration. *)
val sleep : t -> float -> unit

(** [suspend t register] blocks the calling process. [register] is
    called immediately with a [resume] function; the process continues,
    with the value passed, when [resume] is invoked. [resume] must be
    called exactly once. *)
val suspend : t -> (('a -> unit) -> unit) -> 'a

