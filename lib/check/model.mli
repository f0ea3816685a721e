(** Pure reference model of the Table 4-1 server state machine.

    An independent, deliberately simple functional re-implementation of
    the {!Spritely.State_table} semantics (persistent data, no
    hashtables, no mutation). The model checker and the qcheck
    properties replay every operation through both implementations and
    demand identical observable behaviour — including the exact version
    numbers and the exact merged callback prescriptions — so a bug in
    either implementation surfaces as a divergence.

    The model does not implement table-capacity reclamation
    (Section 4.3.1); drive it only under universes far smaller than
    [max_entries]. Reclamation is covered by dedicated unit tests. *)

type mode = Spritely.State_table.mode

type t

val empty : t

(** What the server must answer and do for an [open] (Section 3.1):
    the verdict, both version numbers, and the callbacks to perform
    before replying — merged per target and sorted by target for
    canonical comparison. *)
type expected_open = {
  x_cache_enabled : bool;
  x_version : int;
  x_prev_version : int;
  x_callbacks : Spritely.State_table.callback list;
}

(** Apply one checker op (closes etc. must be legal, cf. {!legal}). *)
val apply : t -> Invariant.op -> t * expected_open option

(** Is the op meaningful in this state? (A close must match an open, a
    [Note_clean] needs that client as last writer, [Forget]/[Remove]
    need state to act on.) Opens are always legal. *)
val legal : t -> Invariant.op -> bool

(** Observation snapshot over the universe [files × clients], in the
    same shape the checker extracts from the real table. *)
val observe : t -> clients:int -> files:int -> Invariant.obs
