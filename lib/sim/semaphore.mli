(** Counting semaphore with FIFO wakeup order. *)

type t

(** [create engine n] makes a semaphore with [n] initial units. *)
val create : Engine.t -> int -> t

(** [with_unit t fn] blocks until a unit is available, takes it, runs
    [fn], and gives the unit back, on exception as well. *)
val with_unit : t -> (unit -> 'a) -> 'a
