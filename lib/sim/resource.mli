(** A served resource (CPU, disk arm, ...) with utilization accounting.

    Behaves like a FIFO semaphore of [capacity] units, but additionally
    tracks the total virtual time during which at least one unit was
    held ("busy time"), which is what server-utilization figures
    plot. *)

type t

val create : Engine.t -> ?capacity:int -> string -> t

val name : t -> string

(** [use t dur] acquires a unit, holds it for [dur] seconds of virtual
    time, and releases it. This is the normal way to charge CPU or
    device time. *)
val use : t -> float -> unit

(** [reserve t dur] books [dur] seconds on a capacity-1 resource
    without suspending the caller, and returns the virtual time at
    which the reservation ends (reservations are served FIFO, so it
    starts when the previous one ends). Equivalent to a dedicated
    process calling {!use}, minus the process: the fast path for
    fire-and-forget serialized devices such as the network medium.
    Do not mix with {!use} on the same resource — the two
    disciplines don't see each other's occupancy. Raises
    [Invalid_argument] if the capacity is not 1 or [dur] is
    negative. *)
val reserve : t -> float -> float

(** Cumulative busy time (any unit held) up to the current instant. *)
val busy_time : t -> float
