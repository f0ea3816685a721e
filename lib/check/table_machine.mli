(** The Table 4-1 state machine, for {!Explore}.

    Its ops are every interleaving of
    [open]/[close]/[note_clean]/[forget_client]/[remove_file] over a
    small universe (≤ 3 clients, ≤ 2 files); its fingerprint is the
    full observation with version numbers reduced to ranks. Every
    transition is checked against {!Invariant} and against the pure
    reference {!Model} (exact observable agreement, including version
    numbers and merged callback prescriptions); every distinct state
    additionally checks the crash-recovery round trip
    [equal (of_reports (to_reports t)) t] and the order-independence
    of [merge_report] trickle-in (Section 2.4).

    The machine is a functor so the negative tests can instantiate it
    with deliberately-buggy wrappers around the real table and prove
    that each invariant actually bites. *)

module St := Spritely.State_table

(** The slice of {!Spritely.State_table} the machine drives. *)
module type TABLE = sig
  type t

  val create : unit -> t
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
  val to_reports : t -> St.client_report list
  val of_reports : St.client_report list -> t
  val merge_report : t -> St.client_report -> unit
  val equal : t -> t -> bool
end

module Make (T : TABLE) : sig
  type state

  (** The machine over [clients] (default 3) clients and [files]
      (default 2) files, from an empty table. *)
  val machine :
    ?clients:int -> ?files:int -> unit -> (state, Invariant.op) Explore.machine
end
