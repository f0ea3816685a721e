(** Domain-safety pass, interprocedural edition.

    Parallel campaign sweeps ([Experiments.Sweep.map] under
    [Campaign.run ~jobs], and raw [Domain.spawn]) only stay
    byte-identical to sequential runs if fanned code never touches
    shared mutable process state except through [Atomic.t] or a
    [Domain.DLS] key (DESIGN §11.2). This pass checks that contract
    statically over [lib/] and [examples/]:

    - classify every toplevel binding (including bindings at the top of
      nested modules and functor bodies): [Atomic.make] and
      [Domain.DLS.new_key] are safe; [ref], mutable containers
      ([Hashtbl]/[Queue]/[Stack]/[Buffer]/[Bytes]/[Array] constructors),
      mutable-record literals and array literals are shared mutable
      globals;
    - seed the whole-program call graph with the thunks handed to the
      fan-out points — inline lambdas contribute their resolved
      references directly; a thunk the graph cannot name (a local
      function or a parameter, as in [Sweep.map] itself)
      over-approximates to everything the enclosing toplevel binding
      references — and walk reachability through aliases, [open]s,
      wrapper prefixes and functor applications, so a helper in another
      library that pokes a shared table is caught even though the
      fan-out site never names it;
    - report every mutable global reachable from fanned code at its
      definition site, naming the (lexicographically first) fan-out
      entry point that reaches it;
    - separately flag [Domain.DLS.get]/[set] applied to a
      module-qualified key ([M.slot]): per-domain slots are only sound
      while every access stays inside the wrapper module that owns the
      key (the [Obs.Trace]/[Obs.Metrics]/[Xdr.Enc] pattern).

    This is the static twin of [test_sweep]'s seeded global-slot-leak
    runtime test: the same bug class, caught at lint time with
    whole-program reachability. *)

val pass : Pass.t
