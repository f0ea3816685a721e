(** AST re-implementation of the hashtbl-order rule.

    Hash-bucket order is not part of any contract, so values produced
    by [Hashtbl.iter]/[Hashtbl.fold] in [lib/] must not decide the
    order of observable emission (trace events, callbacks, RPC sends)
    without an intervening sort. [Sim.Inttbl.fold] is held to the same
    rule: its slot order is deterministic but no more meaningful.

    Unlike the old textual window heuristic, taint is tracked through
    let-bindings and list pipelines: a [Hashtbl.fold] result stays
    tainted through [List.rev]/[List.filter]/[List.map]/..., is
    cleansed by [List.sort]/[sort_uniq]/[stable_sort], and is reported
    when it reaches a sink — either as a sink-call argument or as the
    list an iteration-with-sink-body runs over. [Hashtbl.iter] with a
    sink in its body is flagged directly. *)

val pass : Pass.t
