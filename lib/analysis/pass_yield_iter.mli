(** Blocking inside live table iteration.

    [Hashtbl.iter]/[fold] iterate the live table — no snapshot. Under
    cooperative scheduling, a per-binding function that reaches a yield
    point (judged by the interprocedural may-yield summaries, so
    cross-library wrappers count) lets another task mutate the table
    mid-iteration, which OCaml's [Hashtbl] documents as undefined
    behaviour. In the simulator it surfaces as clients skipped during a
    recall broadcast or visited twice by the laundromat.

    The fix idiom is snapshot-then-iterate: project the bindings into a
    list first, then walk the list (the list walk may then be a
    [fanout] finding — a cost question, not a soundness one). Scope:
    [lib/] and [examples/]. *)

val pass : Pass.t
