(** Binary min-heap of timestamped events.

    Events are ordered by time; ties are broken by insertion sequence
    number so that the simulation is fully deterministic. The heap
    itself holds only timestamps, sequence numbers and slot indices;
    each event's closure is stored once, in a slot, until it is
    popped. *)

type t

val create : unit -> t

(** [push t ~time ~seq fn] inserts event [fn] to fire at [time]. *)
val push : t -> time:float -> seq:int -> (unit -> unit) -> unit

(** Time of the earliest event. Raises [Not_found] if empty. Does not
    allocate an option; the caller pays one float box at most. *)
val min_time : t -> float

(** Sequence number of the earliest event. Raises [Not_found] if
    empty. With {!min_time} this exposes the full ordering key, so two
    queues sharing one sequence counter can be merged by comparing
    tops (the engine merges its heap with its watchdog lanes this
    way). *)
val min_seq : t -> int

(** The do-nothing closure used to fill freed queue slots, and the
    sentinel {!pop_until} returns when it has nothing to dispatch.
    Compare with [==]. *)
val nop : unit -> unit

(** [pop_until t cell] pops the earliest event, stores its time in
    [cell.(0)] (unboxed — meant for the engine's clock cell) and
    returns its closure. Returns {!nop} if the queue is empty. The
    engine never enqueues {!nop} itself, so a [==] test against it is
    unambiguous. *)
val pop_until : t -> float array -> unit -> unit

(** Remove and return the earliest event's closure (by (time, seq)).
    Raises [Not_found] if empty. The zero-allocation half of the
    engine's dispatch pair: read {!min_time} first if the timestamp is
    needed. *)
val pop_fn : t -> unit -> unit

val is_empty : t -> bool
val length : t -> int
