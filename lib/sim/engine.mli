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
    them) parked for a later [spawn] to reuse, until {!run} returns. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** [rename t name] names the calling process [name] in error reports
    from now on: a process that takes up another job, as a server thread
    takes the next request of its backlog, is then named after the job
    it is doing. Usable only inside a process; it does not block. *)
val rename : t -> string -> unit

(** An exception a process raised, with the process's name and the
    backtrace inside it (empty unless backtraces are recorded). It
    prints as [process "NAME" failed with EXN]. *)
exception Process_failure of string * exn * Printexc.raw_backtrace

(** Run until the event queue drains or {!stop} is called. An exception
    a process raises escapes [run] as {!Process_failure}. *)
val run : t -> unit

(** Halt {!run} after the current event. Daemon
    processes (periodic syncers, keepalive loops) keep the event queue
    populated forever, so a driver whose work is done calls [stop].
    The engine can be run again afterwards. *)
val stop : t -> unit

(** {2 Operations usable only inside a process} *)

(** Block the calling process for the given virtual duration.

    When the wake-up would be the next event dispatched, the process
    continues in place instead: the clock moves to [now + d], one
    sequence number and one executed event are counted, and no event
    is queued. It does so when all three of these hold: the process is
    running in its own start or wake-up event, or was woken by the
    [resume] of a {!suspend_tail}, not inside another event whose
    [resume] (see {!suspend}) woke it, so nothing else runs at this
    instant once it blocks; {!stop} has not been called; and
    [now + d] is strictly earlier than every queued event (one queued at the same time has a
    smaller sequence number and goes first). A queued wake-up would
    then have been dispatched next, so the dispatch order, the clock
    and {!events_executed} are exactly what they would have been. *)
val sleep : t -> float -> unit

(** [suspend t register] blocks the calling process. [register] is
    called immediately with a [resume] function; the process continues,
    with the value passed, when [resume] is invoked. [resume] must be
    called exactly once. *)
val suspend : t -> (('a -> unit) -> unit) -> 'a

(** [suspend_tail t register] is {!suspend} for a wait whose resumer
    promises to call [resume] as the last action of its event: once
    the process blocks again or finishes, that event ends and nothing
    else runs at this instant. The process then counts as running in
    its own event, so a {!sleep} it makes before blocking again may
    continue in place. It is the wait of an RPC caller, resumed by its
    reply's delivery or its retransmission timer, each of which ends
    with the resume. A resume with more to do after it breaks the
    dispatch order: use {!suspend} there. [resume] must be called
    exactly once. *)
val suspend_tail : t -> (('a -> unit) -> unit) -> 'a

(** [suspend_then_sleep t d register] blocks the calling process, then
    sleeps it for [d]: [register] is called immediately with a [book]
    function, and calling [book] queues the process's wake-up [d]
    seconds from that moment, the event, time and sequence number a
    {!sleep} of [d] started there would have queued. [book] returns at
    once; it never runs the process inline. Once woken, the process
    continues as from a {!sleep}, in its own wake-up event. It is the
    hand-off of a busy resource (see {!Resource.use}): the releasing
    holder books its successor's hold. [book] must be called exactly
    once. Raises [Invalid_argument] if [d] is negative. *)
val suspend_then_sleep : t -> float -> ((unit -> unit) -> unit) -> unit
