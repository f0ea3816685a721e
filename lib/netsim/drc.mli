(** The duplicate-request cache of one served program (Juszczak's
    request cache): which xids it has executed or is executing, and the
    reply each finished one sent, so a retransmission is dropped or
    answered from the cache instead of executed again.

    It behaves exactly as a direct-mapped table of 4,096 slots indexed
    by [xid land 4095], where a new xid evicts the entry in its slot.
    The table starts with no slots and doubles only when a new xid
    lands on a slot another entry of a different residue holds, so an
    idle service allocates nothing and every decision, eviction and
    {!length} is that of the table at its bound. *)

type 'a t

(** [create ~pending] is an empty cache. [pending] stands for the reply
    of a call still executing; it is compared with [==] and must be a
    value no call replies with. *)
val create : pending:'a -> 'a t

type decision =
  | Execute  (** a new xid, now recorded as executing *)
  | Drop  (** a retransmission of a call still executing *)
  | Replay  (** a retransmission of a finished call: see {!reply} *)

(** [arrive t xid] decides what to do with a request carrying [xid],
    and records it when it is new (evicting the older entry of its
    residue, if any). *)
val arrive : 'a t -> int -> decision

(** [reply t xid] is the cached reply of [xid], valid right after
    {!arrive} returned [Replay] for it. *)
val reply : 'a t -> int -> 'a

(** [publish t xid r] records [r] as the reply of [xid] if [xid] is
    still cached; a newer request of the same residue may have evicted
    it while it ran. *)
val publish : 'a t -> int -> 'a -> unit

(** Drop every entry and every slot: volatile server state does not
    survive a reboot. *)
val reset : 'a t -> unit

(** Entries held: executing and finished calls. *)
val length : 'a t -> int
