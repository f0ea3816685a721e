(** Plain-text table rendering for the experiment reports. *)

(** [render ~header rows] lays the table out with padded columns.
    All rows must have the same arity as the header. The first column
    is left-aligned, the rest right-aligned. *)
val render : header:string list -> string list list -> string

(** [render_series ~columns rows] prints a compact aligned numeric
    listing; used for figure (time-series) output. *)
val render_series : columns:string list -> float list list -> string

(** A crude ASCII sparkline of the values (8 levels), to visualize the
    utilization figures in a terminal. *)
val sparkline : float list -> string
