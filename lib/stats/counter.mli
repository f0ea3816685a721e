(** Named counter sets, used for the RPC-operation tables (Tables 5-2,
    5-4, 5-6 of the paper). *)

type t

val create : unit -> t

(** Add [n] (default 1) to the named counter, creating it at zero if
    needed. *)
val incr : t -> ?n:int -> string -> unit

(** The named counter's storage cell, created at zero if needed.
    Callers on hot paths look the cell up once and bump it directly:
    a name keeps its cell for the life of the set. *)
val cell : t -> string -> int ref

val get : t -> string -> int

(** Sum over all counters. *)
val total : t -> int

(** Sum over the given names. *)
val total_of : t -> string list -> int

(** All (name, count) pairs, sorted by name. *)
val to_list : t -> (string * int) list

(** Independent copy. *)
val snapshot : t -> t

(** [diff later earlier] returns a counter set with the per-name
    difference, for measuring an interval. Names whose delta is not
    positive are omitted, so a [later] behind [earlier] is clamped to
    zero rather than reported as a negative interval. *)
val diff : t -> t -> t
