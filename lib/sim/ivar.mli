(** Single-assignment synchronization variable.

    One or more processes block reading an ivar (the block cache's
    readers of a block being fetched); [fill] wakes them all with the
    value. *)

type 'a t

val create : Engine.t -> 'a t

(** Write the value. Raises [Invalid_argument] if already filled. *)
val fill : 'a t -> 'a -> unit

(** Block until filled, then return the value. *)
val read : 'a t -> 'a
