(** Latency histograms: record samples, report percentiles.

    Used by the trace-driven experiment to compare per-operation
    latency distributions across protocols (mean hides the tail that
    write-through creates). *)

type t

val create : string -> t

val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val max_value : t -> float

(** [percentile t p] with [p] in [0, 100]. 0 samples yields 0. *)
val percentile : t -> float -> float

(** "n=…, mean=…, p50=…, p90=…, p99=…, max=…" *)
val summary : t -> string
