(** Interprocedural may-yield effect inference over the call graph.

    A fixpoint computing, for every toplevel binding in the tree,
    whether calling it can reach a cooperative blocking point. Seeds
    are the primitive blocking suffixes (a node *named* like one, e.g.
    [Sim.Engine.sleep], or a body applying one synchronously); the
    effect propagates up synchronous reference edges, so a wrapper in
    another library is inferred blocking and a pure function that
    merely shares a primitive's name is not. *)

val deferring_suffixes : string list list
(** heads whose lambda arguments run in a later task *)

val is_primitive : string list -> bool
(** does a raw head path suffix-match a primitive blocking point? *)

val may_yield : Callgraph.t -> (string, unit) Hashtbl.t
(** the summary table: node id present iff calling it may yield *)

val blocking_head :
  Callgraph.t ->
  (string, unit) Hashtbl.t ->
  file:string ->
  module_path:string list ->
  string list ->
  bool
(** judge one application head: resolved heads trust their inferred
    summary, unresolvable heads fall back to the primitive suffixes *)

val expr_blocks :
  Callgraph.t ->
  (string, unit) Hashtbl.t ->
  file:string ->
  module_path:string list ->
  Parsetree.expression ->
  bool
(** does the expression contain a blocking reference in synchronous
    position (deferred thunks excluded)? Used to judge lambda bodies
    handed to iterators. *)
