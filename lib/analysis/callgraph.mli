(** Whole-program call graph over every parsed source file.

    One node per name a toplevel value binding binds (nested modules and
    functor bodies included), identified by its dotted module path; a
    binding that binds no name ([let () = ...], [let _ = ...]) is a node
    of its own, named [<toplevel:LINE>]. Every identifier reference is
    resolved through [module X = M] and [let module X = M in] aliases,
    [open M], [let open M in] and [M.( ... )] scopes, library-wrapper
    prefixes (dropping unknown leading components, so [Netsim.Rpc.call]
    reaches the tree module [Rpc]) and functor application
    over-approximated against every argument module the functor is
    applied to outside [test/], [let module X = F (A) in] included. The interprocedural passes — may-yield effect inference,
    Domain-safety reachability, the server fan-out cost lint and
    interface drift — are all built on this graph. *)

type node = {
  id : string;  (** dotted id, e.g. ["Snfs_server.perform_callback"] *)
  name : string;  (** the binding name alone *)
  module_path : string list;
  path : string;  (** source file the binding lives in *)
  line : int;
  col : int;
  body : Parsetree.expression;
}

type t

val default_defer : string list list
(** the deferring primitives: a lambda handed to one of these runs in a
    later task, so its references are excluded from [sync_refs] *)

val build : Source.t list -> t

val nodes : t -> node list
(** every node, sorted by id — the deterministic walk order *)

val refs : t -> string -> string list
(** the resolved references of a node's body, sorted and deduped;
    bindings that share an id merge theirs *)

val sync_refs : t -> string -> string list
(** the resolved references of a node's body outside deferred-thunk
    lambdas, sorted and deduped *)

val sync_heads : t -> string -> string list list
(** raw application-head paths outside deferred thunks, in source
    order — the effect inference matches these against its primitive
    blocking suffixes *)

val resolve_at :
  t -> file:string -> module_path:string list -> string list -> string list
(** resolve a raw reference path in the scope of [file] as seen from
    [module_path]; returns every node id it may denote *)

val resolve_in : t -> node:string -> string list -> string list
(** [resolve_at] in the scope of an existing node *)

val reachable : t -> (string * string) list -> (string, string) Hashtbl.t
(** breadth-first closure over all resolved references from labeled
    [(label, root)] pairs; each reached node maps to the
    lexicographically first label that reaches it, so derived messages
    are deterministic *)
