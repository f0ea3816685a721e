(** A minimal self-contained JSON parser.

    Just enough for {!Analyze} to read back Chrome trace JSON and for
    the exporter tests to validate their output, without adding an
    external JSON dependency. Accepts the subset the exporter emits —
    objects, arrays, strings with the usual escapes, numbers, booleans,
    null — and rejects everything else with {!Error}. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Error of string

(** Parse a complete JSON document; raises {!Error} on malformed
    input or trailing garbage. *)
val parse : string -> t

(** Object member lookup ([None] on non-objects and absent keys). *)
val member : string -> t -> t option

val str : t -> string option
val num : t -> float option

(** [str_member k j] = the string under key [k], if present. *)
val str_member : string -> t -> string option

val num_member : string -> t -> float option
