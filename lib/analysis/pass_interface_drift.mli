(** Interface-drift pass.

    A [val] in a [lib/] interface that no code outside its own module
    references is dead API surface: it rots silently and widens the
    audit burden of every protocol change. The pass reads references
    from the whole-program call graph ({!Callgraph}), so aliases,
    opens, local modules and functor arguments resolve exactly as they
    do for every other graph pass: a [val v] of module [A] counts as
    used when a node outside [test/] and outside [A]'s own source
    references the node [A.v]. A val never so referenced is reported
    at its [.mli] declaration. The values of a nested
    [module X : sig ... end], and of a functor [X] whose result is a
    [sig ... end], are judged as [A.X]'s. Operator names are skipped. *)

val pass : Pass.t
