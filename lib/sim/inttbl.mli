(** Int-keyed hash table for the simulator's per-operation paths.

    Open addressing with linear probing over a power-of-two array,
    kept at most half full. Keys go through a full-width multiplicative
    mixer, so keys that differ only in their high bits (a packed
    (file, index) address) do not crowd adjacent slots. Deletion shifts
    the rest of the probe run back over the hole (Knuth's Algorithm R),
    so there are no tombstones and the table rehashes only to grow.

    Unlike [Hashtbl], a lookup hashes with two multiplies and compares
    ints, and a miss returns the table's own empty sentinel rather than
    [None]: {!find} allocates nothing, hit or miss.

    The sentinel is supplied by {!create} and compared with [==]. It
    must be a value the caller never stores, so it is usually a fresh
    record; an immediate (say [false] in a set of [true]s) works too.
    Float values would be boxed on every read and compare unequal:
    store a [float ref] instead.

    Iteration order depends only on the keys and the order of the adds
    and removes, so it is deterministic; callers whose output could
    show it sort first. *)

type 'a t

(** [create ~empty] is an empty table. It allocates no slots until the
    first {!replace}, then doubles as it fills. *)
val create : empty:'a -> 'a t

(** The sentinel {!find} returns for an absent key. *)
val empty : 'a t -> 'a

(** [find t k] is the value bound to [k], or [empty t]. *)
val find : 'a t -> int -> 'a

(** [replace t k v] binds [k] to [v], replacing any earlier binding.
    [v] must not be the sentinel. *)
val replace : 'a t -> int -> 'a -> unit

(** [remove t k] unbinds [k]; true if it was bound. *)
val remove : 'a t -> int -> bool

(** Unbind every key, keeping the current capacity. *)
val clear : 'a t -> unit

(** [fold f t acc] folds over the bindings in slot order. [f] must not
    add to or remove from [t]. *)
val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
