(** A served resource (CPU, disk arm, ...) with utilization accounting.

    Behaves like a FIFO mutex (one unit), but additionally tracks the
    total virtual time during which the unit was held ("busy time"),
    which is what server-utilization figures plot. *)

type t

val create : Engine.t -> string -> t

val name : t -> string

(** [use t dur] acquires the unit, holds it for [dur] seconds of virtual
    time, and releases it. This is the normal way to charge CPU or
    device time. A caller that finds the unit free sleeps for [dur]. One
    that finds it held suspends once, in a FIFO queue cell holding its
    continuation and [dur]: the holder's release hands it the unit and
    books its wake-up [dur] later, the same event, time and sequence
    number its own sleep would have queued had the release resumed it
    to acquire and sleep. Raises [Invalid_argument] if [dur] is
    negative. *)
val use : t -> float -> unit

(** [reserve t dur] books [dur] seconds on the resource and returns the
    virtual time at which the reservation ends. Nothing waits: the
    caller is not suspended, and no queue cell is taken, since
    reservations are served FIFO and each one starts when the previous
    one ends. Equivalent to a dedicated process calling {!use}, minus
    the process: the fast path for fire-and-forget serialized devices
    such as the network medium. Do not mix with {!use} on the same
    resource — the two disciplines don't see each other's occupancy.
    Raises [Invalid_argument] if [dur] is negative. *)
val reserve : t -> float -> float

(** Cumulative busy time (unit held) up to the current instant. *)
val busy_time : t -> float
