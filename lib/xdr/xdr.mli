(** XDR (RFC 1014 subset) encoding and decoding.

    Every RPC payload in the simulation is really marshalled through
    this module, so message sizes (and therefore simulated network
    transmission times) reflect genuine wire formats. All quantities
    are 4-byte aligned as the standard requires.

    Integers are represented as native OCaml [int]s holding 32-bit
    values; a causal context ({!ctx}) is a 64-bit hyper. *)

exception Error of string

module Enc : sig
  (** An encoder is a grow-only byte buffer. Each domain keeps one
      scratch encoder: {!create} returns it, with its previous storage,
      unless it is still live (an encoding nested in another), in
      which case it returns a fresh encoder. {!to_bytes} {e finishes}
      the encoder: it returns the encoded copy, and using the finished
      encoder raises {!Error}. The scratch encoder is domain-local, so
      parallel campaigns ({!Experiments.Sweep}) never share encoder
      storage across domains. *)
  type t

  val create : unit -> t

  (** Return a copy of the encoded bytes and finish the encoder (see
      above: it must not be used again). *)
  val to_bytes : t -> bytes

  (** Unsigned 32-bit integer in [0, 2^32). *)
  val uint32 : t -> int -> unit

  val bool : t -> bool -> unit

  (** Enums are encoded as signed 32-bit ints. Raises {!Error} if out
      of range. *)
  val enum : t -> int -> unit

  val float64 : t -> float -> unit

  (** Length word, then the bytes, zero-padded to a multiple of 4. *)
  val string : t -> string -> unit

  (** Counted array: length word, then each element via [f]. *)
  val array : t -> ('a -> unit) -> 'a list -> unit
end

module Dec : sig
  type t

  val of_bytes : bytes -> t

  (** Independent cursor over the same bytes, starting at this
      decoder's current position (peek without consuming). *)
  val clone : t -> t

  (** Raises {!Error} unless fully consumed. *)
  val check_done : t -> unit

  val uint32 : t -> int
  val bool : t -> bool
  val enum : t -> int
  val float64 : t -> float
  val string : t -> string
end

(** {2 Codecs}

    A message format written once: the encoder and the decoder of one
    type, so the two sides of a message cannot drift apart. Composite
    codecs encode their components in order and decode them in the
    same order. *)

type 'a codec = { enc : Enc.t -> 'a -> unit; dec : Dec.t -> 'a }

val unit : unit codec
val uint32 : int codec
val bool : bool codec
val string : string codec

(** Causal-context field (see {!Obs.Causal}): the inducing operation's
    trace id as a hyper, 0 for "no context". *)
val ctx : int codec
val list : 'a codec -> 'a list codec
val pair : 'a codec -> 'b codec -> ('a * 'b) codec
val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec

(** [map ~inj ~prj c] carries [v] as [c] carries [prj v]. *)
val map : inj:('a -> 'b) -> prj:('b -> 'a) -> 'a codec -> 'b codec
