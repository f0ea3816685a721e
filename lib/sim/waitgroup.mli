(** Join-point for a known number of concurrent tasks: [add] before
    spawning, [done_] from each task, [wait] blocks until the count
    drains to zero. *)

type t

val create : Engine.t -> t

(** Register [n] (default 1) outstanding tasks. Must not be called
    after [wait] has already been released. *)
val add : t -> ?n:int -> unit -> unit

(** One task finished. Raises [Invalid_argument] below zero. *)
val done_ : t -> unit

(** Block until the outstanding count reaches zero (returns immediately
    if it already is). Multiple waiters are all released. *)
val wait : t -> unit
