(** Protocol invariants over observable {!Spritely.State_table} state.

    The checks are pure functions over {e observation snapshots} — the
    values the table's query API returns for a fixed small universe of
    clients and files — so the same code verifies the real table, the
    reference {!Model}, and deliberately-buggy table wrappers in the
    negative tests. Every invariant corresponds to a guarantee the
    paper states for Table 4-1 / Section 3; DESIGN.md ("Checked
    invariants") lists them with citations. *)

type mode = Spritely.State_table.mode

(** One step of the protocol, as the model checker drives it. *)
type op =
  | Open of int * int * mode  (** client, file, mode *)
  | Close of int * int * mode  (** client, file, mode *)
  | Note_clean of int * int  (** client, file *)
  | Forget of int  (** client crash (Section 3.2) *)
  | Remove of int  (** file deleted *)

val ops_to_string : op list -> string

(** Everything the table will say about one file, for a fixed client
    universe [0 .. clients-1]. *)
type file_obs = {
  o_present : bool;  (** the file has a live table entry *)
  o_state : Spritely.State_table.state;
  o_version : int;
  o_openers : (int * int * int) list;  (** (client, readers, writers) *)
  o_can_cache : bool list;  (** indexed by client id *)
  o_last_writer : int option;
  o_inconsistent : bool;
}

(** One snapshot per universe file, indexed by file id. *)
type obs = (int * file_obs) list

(** A violated invariant: (invariant name, human-readable detail). *)
type violation = string * string

(** Invariants of a single reachable state: at most one writer whenever
    any client may cache (Section 3.1), WRITE_SHARED implies no client
    cachable (Section 4.2.1), derived-state consistency with the open
    counts, and the table-size bound (Section 4.3.1). *)
val check_state : entry_count:int -> obs -> violation list

(** Invariants of one transition [pre --op--> post]: version-number
    monotonicity (Section 4.3.3), callbacks-before-reply never target
    the opener (Section 3.2), and cachability only ever granted by the
    opener's own [open] (Section 4.3 / the mli's "only grants
    cachability at open time"). [result] is the open's verdict when
    [op] is an [Open]. *)
val check_transition :
  pre:obs ->
  op:op ->
  result:Spritely.State_table.open_result option ->
  post:obs ->
  violation list

(** [diff_obs ~expected ~got] — empty when the snapshots agree; used to
    cross-check the table against the reference {!Model}. *)
val diff_obs : expected:obs -> got:obs -> violation list
