(** Binned time series, used for the server-utilization and call-rate
    plots (Figures 5-1 and 5-2 of the paper).

    Values are accumulated into fixed-width bins of virtual time;
    rendering divides by the bin width to produce rates, or reports the
    raw accumulated value (for utilization fractions already
    normalized by the caller). *)

type t

(** [create ~bin name] makes a series with bins of [bin] seconds. *)
val create : bin:float -> string -> t

val bin_width : t -> float

(** Add [v] to the bin containing time [time]. *)
val add : t -> time:float -> float -> unit

(** Number of bins up to the last one touched. *)
val bins : t -> int

(** Accumulated value in bin [i] (0 if untouched). *)
val value : t -> int -> float

(** Accumulated value divided by bin width (a per-second rate). *)
val rate : t -> int -> float

(** All bin values as (bin_start_time, value). *)
val to_list : t -> (float * float) list
