(** Yield-point race detector, interprocedural edition.

    The simulator is cooperatively scheduled: state can only change
    under our feet across a blocking point ([Rpc.call], [Engine.sleep],
    [Ivar.read], [Resource.use], disk and cache waits, RPC wire
    wrappers). A value read from mutable protocol/cache state (mutable
    record field, [Hashtbl.find], [!ref]) that is bound before such a
    point and used after it without a re-read is a cache-consistency
    hazard — exactly the class of bug behind stale-attribute and
    lost-callback races in the Spritely/Kent protocols.

    Blocking-ness of an application head is judged through the
    whole-program call graph: a head that resolves to a tree binding is
    trusted to its inferred may-yield summary (so a cross-library
    wrapper around [Rpc.call] is caught, and a pure function that
    merely shares a primitive's name is not), and only unresolvable
    heads fall back to the primitive suffix vocabulary.

    Let-bound direct mutable reads are tracked, every live binding is
    marked "crossed" at each blocking application, and the first use
    of a crossed binding is reported. Lambdas handed to deferring primitives
    ([Engine.spawn]/[after]/[at], [Metrics.register_poll]) run later in
    a fresh task, so they are analysed with a fresh environment.
    Claim-and-clear and bump-cell stores stay exempt. Scope: [lib/]
    and [examples/]. *)

val pass : Pass.t
