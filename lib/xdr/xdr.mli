(** XDR (RFC 1014 subset) encoding and decoding.

    Every RPC payload in the simulation is really marshalled through
    this module, so message sizes (and therefore simulated network
    transmission times) reflect genuine wire formats. All quantities
    are 4-byte aligned as the standard requires.

    Integers are represented as native OCaml [int]s holding 32-bit
    values; [hyper] uses [int64]. *)

exception Error of string

module Enc : sig
  (** An encoder is a grow-only byte buffer. Encoders are recycled
      through a per-domain pool: {!create} may return previously-used
      storage, and {!to_bytes}/{!to_string} {e finish} the encoder —
      they return the encoded copy and give the encoder back to the
      pool. Using a finished encoder raises {!Error}. The pool is
      domain-local, so parallel campaigns ({!Experiments.Sweep}) never
      share encoder storage across domains. *)
  type t

  val create : unit -> t

  (** Drop everything encoded so far, keeping the storage. For callers
      that hold one encoder and reuse it per message instead of going
      through the pool; with {!unsafe_bytes} and {!Dec.reuse} such a
      round trip allocates nothing. *)
  val reset : t -> unit

  (** Encoded length so far, in bytes. *)
  val length : t -> int

  (** Return a copy of the encoded bytes and finish the encoder (see
      above: it goes back to the pool and must not be used again). *)
  val to_bytes : t -> bytes

  val to_string : t -> string

  (** The encoder's internal buffer, without copying: only the first
      {!length} bytes are meaningful, and the view is invalidated by
      any further encoding, [to_bytes] or [reset]. Pair with
      {!Dec.reuse} for allocation-free decoding. *)
  val unsafe_bytes : t -> bytes

  (** Signed 32-bit integer. Raises {!Error} if out of range. *)
  val int32 : t -> int -> unit

  (** Unsigned 32-bit integer in [0, 2^32). *)
  val uint32 : t -> int -> unit

  val hyper : t -> int64 -> unit
  val bool : t -> bool -> unit

  (** Enums are encoded as signed ints. *)
  val enum : t -> int -> unit

  val float64 : t -> float -> unit

  (** Fixed-length opaque data (length known from the protocol). *)
  val opaque_fixed : t -> bytes -> unit

  (** Variable-length opaque data: length word then padded bytes. *)
  val opaque : t -> bytes -> unit

  val string : t -> string -> unit

  (** Counted array: length word, then each element via [f]. *)
  val array : t -> ('a -> unit) -> 'a list -> unit

  (** XDR optional ("pointer"): bool discriminant then the value. *)
  val option : t -> ('a -> unit) -> 'a option -> unit

  (** Causal-context field (see {!Obs.Causal}): the inducing
      operation's trace id as a hyper, 0 for "no context". *)
  val ctx : t -> int -> unit
end

module Dec : sig
  type t

  val of_bytes : bytes -> t
  val of_string : string -> t

  (** Repoint an existing decoder at the first [len] bytes of [buf]
      (cursor back to 0). Lets one long-lived decoder walk many
      messages — or an encoder's {!Enc.unsafe_bytes} — without
      allocating a cursor each time. *)
  val reuse : t -> bytes -> len:int -> unit

  (** Independent cursor over the same bytes, starting at this
      decoder's current position (peek without consuming). *)
  val clone : t -> t

  (** Bytes remaining. *)
  val remaining : t -> int

  (** Raises {!Error} unless fully consumed. *)
  val check_done : t -> unit

  val int32 : t -> int
  val uint32 : t -> int
  val hyper : t -> int64
  val bool : t -> bool
  val enum : t -> int
  val float64 : t -> float
  val opaque_fixed : t -> int -> bytes
  val opaque : t -> bytes
  val string : t -> string
  val array : t -> (t -> 'a) -> 'a list
  val option : t -> (t -> 'a) -> 'a option

  (** Inverse of {!Enc.ctx}; 0 decodes to "no context". *)
  val ctx : t -> int
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
val ctx : int codec
val list : 'a codec -> 'a list codec
val pair : 'a codec -> 'b codec -> ('a * 'b) codec
val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec

(** [map ~inj ~prj c] carries [v] as [c] carries [prj v]. *)
val map : inj:('a -> 'b) -> prj:('b -> 'a) -> 'a codec -> 'b codec
