(** Deterministic splitmix64 pseudo-random generator.

    Simulations must be reproducible run-to-run, so they never touch the
    global [Random] state; each simulation owns a [Rand.t] seeded from
    its configuration. *)

type t

val create : int64 -> t

(** Uniform in [\[0, bound)]. [bound] must be positive. *)
val int : t -> int -> int

(** Uniform in [\[0, 1)]. *)
val float : t -> float

(** Uniform in [\[lo, hi)]. *)
val range : t -> float -> float -> float

(** Exponentially distributed with the given mean. *)
val exponential : t -> float -> float
