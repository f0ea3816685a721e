(** Bounded exhaustive model checker for the Table 4-1 state machine.

    BFS-enumerates every interleaving of
    [open]/[close]/[note_clean]/[forget_client]/[remove_file] over a
    small universe (≤ 3 clients, ≤ 2 files, bounded depth),
    deduplicating reachable states by a canonical fingerprint with
    version numbers reduced to ranks. Every transition is checked
    against {!Invariant} and against the pure reference {!Model}
    (exact observable agreement, including version numbers and merged
    callback prescriptions); every distinct state additionally checks
    the crash-recovery round trip
    [equal (of_reports (to_reports t)) t] and the order-independence
    of [merge_report] trickle-in (Section 2.4).

    The checker is a functor so the negative tests can instantiate it
    with deliberately-buggy wrappers around the real table and prove
    that each invariant actually bites. *)

module St := Spritely.State_table

(** The slice of {!Spritely.State_table} the checker drives. *)
module type TABLE = sig
  type t

  val create : ?max_entries:int -> unit -> t
  val copy : t -> t
  val open_file : t -> file:int -> client:int -> mode:St.mode -> St.open_result
  val close_file : t -> file:int -> client:int -> mode:St.mode -> unit
  val note_clean : t -> file:int -> client:int -> unit
  val remove_file : t -> file:int -> unit
  val forget_client : t -> int -> unit
  val state : t -> file:int -> St.state
  val version_of : t -> file:int -> Spritely.Version.t
  val can_cache : t -> file:int -> client:int -> bool
  val openers : t -> file:int -> (int * int * int) list
  val last_writer : t -> file:int -> int option
  val was_inconsistent : t -> file:int -> bool
  val files : t -> int list
  val entry_count : t -> int
  val max_entries : t -> int
  val to_reports : t -> St.client_report list
  val of_reports : ?max_entries:int -> St.client_report list -> t
  val merge_report : t -> St.client_report -> unit
  val equal : t -> t -> bool
end

type config = {
  clients : int;  (** universe size, ≤ 3 *)
  files : int;  (** universe size, ≤ 2 *)
  depth : int;  (** interleaving length bound, ≤ 8 *)
  max_states : int;  (** stop expanding after this many distinct states *)
  max_violations : int;  (** stop collecting after this many *)
  path_stride : int;  (** keep every n-th distinct state's op path *)
}

type violation = {
  v_inv : string;  (** invariant name *)
  v_path : Invariant.op list;  (** op sequence reaching the violation *)
  v_detail : string;
}

type stats = {
  distinct_states : int;
  transitions : int;
  deepest : int;  (** depth of the deepest newly-discovered state *)
}

type result = {
  stats : stats;
  violations : violation list;
  paths : Invariant.op list list;
      (** sampled op paths to distinct states, for the consistency
          oracle the tests replay them through *)
}

module Make (T : TABLE) : sig
  (** Explore from an empty table. [config] defaults to 3 clients,
      2 files, depth 8, 60,000 states, 25 violations and a path
      stride of 257. *)
  val run : ?config:config -> unit -> result

  (** Replay one op sequence (illegal ops skipped) through [T] and the
      reference model, returning any violations — the qcheck property
      surface, with shrinking handled by the caller. *)
  val replay : ?config:config -> Invariant.op list -> violation list

  (** Observation snapshot of a table over the universe. *)
  val observe : clients:int -> files:int -> T.t -> Invariant.obs
end

(** The checker over the real {!Spritely.State_table}. *)
module Table_checker : sig
  val run : ?config:config -> unit -> result
  val replay : ?config:config -> Invariant.op list -> violation list

  val observe :
    clients:int -> files:int -> Spritely.State_table.t -> Invariant.obs
end
