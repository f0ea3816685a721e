(** Server fan-out cost lint (ROADMAP item 1: the recall storm).

    Per-request server work must stay O(1) for the paper's §4.2 numbers
    to mean anything: iterating the whole client or open-file table
    while answering one RPC turns an open into an O(clients) scan, and
    a callback broadcast into O(clients) blocking round-trips.

    The server-reachable set is the whole-program call-graph closure of
    every serve-head application — the handler argument plus every
    toplevel binding of a serve-applying file (dispatch and spawned
    maintenance loops alike). A serve head is [Rpc.serve] or, found by
    fixpoint, a binding that forwards a handler to one: a parameter of
    its own is the head's handler argument (the last positional one)
    or is applied inside it, seen through its local lets — so the
    handlers protocols pass to [Wire.serve] and
    [Client_core.serve_callbacks] stay server-reachable. Inside it the
    pass flags:

    - iteration whose per-element function may yield (inferred
      interprocedurally): an O(n) blocking fan-out per request;
    - [Hashtbl.iter]/[Hashtbl.fold] over a live table;
    - [List] iteration over a {i table projection} — a function
      inferred, by fixpoint over application heads, to build its
      result from a table fold (e.g. [State_table.files],
      [clients_with_state]).

    A genuinely bounded site is waived in place with
    [(* snfs-fanout: bounded <reason> *)] in a comment on the flagged
    or previous line, so the bound is documented where the loop lives;
    one that suppresses nothing is a [stale-waiver]. Unwaived
    sites on the real tree are the measured backlog for ROADMAP item 1
    and live in the committed lint baseline. *)

val pass : Pass.t
