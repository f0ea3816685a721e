(** Interface-drift pass.

    A [val] in a [lib/] interface that no code outside its own module
    references is dead API surface: it rots silently and widens the
    audit burden of every protocol change. The pass collects exports
    from each [.mli] and qualified references ([Module.value], with
    [module X = ...] aliases resolved) from every source file; a value
    never referenced outside its defining module is reported at its
    [.mli] declaration. The values of a nested [module X : sig ... end],
    and of a functor [X] whose result is a [sig ... end], are judged as
    [X]'s; [module Y = X (Z)] makes [Y.v] a reference to [X.v].

    Conservative outs: a module that is the target of any [open] or
    [include] elsewhere is skipped entirely, its nested modules with it
    (bare references cannot be attributed), operator names are
    skipped, and same-named modules in different libraries are merged
    (a reference to either counts for both). *)

val pass : Pass.t
