(** Small shared helpers over [Parsetree] for the analysis passes. *)

(** Flattened dotted path of an identifier expression
    ([Nfs.Wire.read] -> [["Nfs"; "Wire"; "read"]]); [None] when the
    expression is not an identifier (or uses functor application). *)
val path_of_expr : Parsetree.expression -> string list option

(** Flatten a longident, tolerating [Lapply] (which {!Longident.flatten}
    rejects) by returning [None]. *)
val flatten : Longident.t -> string list option

(** [has_suffix path suff] — does the dotted path end with [suff]?
    [has_suffix ["Netsim";"Rpc";"call"] ["Rpc";"call"] = true]. *)
val has_suffix : string list -> string list -> bool

(** The live table walks: heads whose function argument runs once per
    binding of a table they take no snapshot of ([Hashtbl.iter] and
    [fold], [Sim.Inttbl.fold]). Match with {!has_suffix}. *)
val table_walks : string list list

(** {!table_walks} plus the [iter] and [fold] of every module the files
    bind to a [Hashtbl.Make] or [Hashtbl.MakeSeeded] instance
    ([module Entries = Hashtbl.Make (...)] adds [Entries.iter] and
    [Entries.fold]): a functor's table is walked just as live. *)
val table_walks_in : Source.t list -> string list list

(** Drop a leading ["Stdlib"], so [Stdlib.print_endline] matches the
    same entries as [print_endline]. *)
val strip_stdlib : string list -> string list

(** Is the expression a [fun] or [function]? *)
val is_lambda : Parsetree.expression -> bool

(** [contains hay needle]: does [needle] (non-empty) occur in [hay]? *)
val contains : string -> string -> bool

(** 1-based line and 0-based column of a location's start. *)
val pos : Location.t -> int * int

(** Strip [|>] / [@@] sugar: rewrites [x |> f] and [f @@ x] into the
    equivalent direct application, recursively on the head, so passes
    see one canonical application shape. *)
val uncurry_pipes : Parsetree.expression -> Parsetree.expression

(** All variable names bound by a pattern. *)
val pat_names : Parsetree.pattern -> string list

(** Iterate over every expression of a structure, in source order. *)
val iter_exprs : (Parsetree.expression -> unit) -> Parsetree.structure -> unit
