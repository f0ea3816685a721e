(** Report formatting helpers shared by the bench harness and CLI. *)

(** A section banner. *)
val banner : string -> string

(** Seconds with sensible precision. *)
val secs : float -> string

val pct : float -> string

(** "measured (paper: reference)" cell. *)
val vs : measured:string -> paper:string -> string

(** Per-procedure call counts, one ["  <proc> <n>"] line each, in
    procedure-name order. *)
val counts : Stats.Counter.t -> string
