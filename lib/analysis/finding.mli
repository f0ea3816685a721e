(** A single static-analysis finding.

    Findings are value-comparable and carry enough position information
    for GNU [file:line:] editor annotation and for the deterministic
    JSON export CI archives. *)

type t = {
  path : string;  (** workspace-relative, '/'-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as the compiler reports columns *)
  rule : string;  (** pass name, e.g. ["yield-race"] *)
  message : string;
}

val v : path:string -> line:int -> ?col:int -> rule:string -> string -> t

(** Total order used for output: path, then line, col, rule, message. *)
val compare : t -> t -> int

(** GNU error format: [path:line:col: error: [rule] message]. *)
val to_string : t -> string

(** The body of a JSON string literal: quote, backslash and control
    characters escaped. The JSON and SARIF reports both use it. *)
val json_escape : string -> string

(** A whole report: JSON array, one object per line with a fixed field
    order, byte-deterministic for identical inputs. *)
val report_to_json : t list -> string
