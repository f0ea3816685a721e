(** The duplicate-request cache of one served program (Juszczak's
    request cache): which xids it has executed or is executing, and
    which of them have finished, so a retransmission is dropped or
    answered with the call's reply instead of executed again. The
    cache holds no reply: the caller answers a [Replay] with the reply
    its request's call record keeps.

    It behaves exactly as a direct-mapped table of 4,096 slots indexed
    by [xid land 4095], where a new xid evicts the entry in its slot.
    The table starts with no slots and doubles only when a new xid
    lands on a slot another entry of a different residue holds, so an
    idle service allocates nothing and every decision, eviction and
    {!length} is that of the table at its bound. *)

type t

(** An empty cache. *)
val create : unit -> t

type decision =
  | Execute  (** a new xid, now recorded as executing *)
  | Drop  (** a retransmission of a call still executing *)
  | Replay  (** a retransmission of a finished call: send its reply again *)

(** [arrive t xid] decides what to do with a request carrying [xid],
    and records it when it is new (evicting the older entry of its
    residue, if any). *)
val arrive : t -> int -> decision

(** [publish t xid] marks [xid]'s call finished if [xid] is still
    cached; a newer request of the same residue may have evicted it
    while it ran. *)
val publish : t -> int -> unit

(** Drop every entry and every slot: volatile server state does not
    survive a reboot. *)
val reset : t -> unit

(** Entries held: executing and finished calls. *)
val length : t -> int
