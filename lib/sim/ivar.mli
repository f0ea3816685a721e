(** Single-assignment synchronization variable.

    The usual rendezvous for RPC replies: one or more processes block
    reading an ivar; [fill] wakes them all with the value. *)

type 'a t

val create : Engine.t -> 'a t

(** Write the value. Raises [Invalid_argument] if already filled. *)
val fill : 'a t -> 'a -> unit

val is_full : 'a t -> bool

(** Block until filled, then return the value. *)
val read : 'a t -> 'a

(** Block until filled or until [timeout] seconds elapse; [None] on
    timeout. The ivar may still be filled later. *)
val read_timeout : 'a t -> float -> 'a option
