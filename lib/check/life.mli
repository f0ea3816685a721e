(** Bounded exhaustive checker for the {!Spritely.Lifecycle} client
    state machine (Active -> Courtesy -> Expirable -> reaped).

    Enumerates every sequence of lifecycle operations up to a depth
    bound over a tiny client universe, advancing time in unit steps,
    and checks the implementation after each operation against a pure
    reference model plus three named invariants:

    - {b expirable-only-on-conflict}: a client observed [Expirable]
      must have been promoted by [note_conflict] from [Courtesy] —
      never by [demote] or by time;
    - {b courtesy-cannot-linger-past-lifetime}: every [Courtesy] client
      demoted at least a courtesy lifetime ago appears in [due];
    - {b reclaim-idempotence}: [due] is read-only (two reads agree),
      reaping everything due leaves nothing due, and double-[forget]
      is harmless.

    A deterministic random phase (seeded {!Sim.Rand}) extends coverage
    to longer sequences than the exhaustive bound.

    Like {!Explore}, the checker is a functor so the negative suite can
    instantiate it over deliberately-buggy wrappers and prove each
    invariant bites. *)

(** The slice of {!Spritely.Lifecycle} the checker drives. *)
module type LIFE = sig
  type t

  val create : ?courtesy_lifetime:float -> unit -> t
  val state : t -> client:int -> Spritely.Lifecycle.state
  val demote : t -> client:int -> now:float -> bool
  val note_conflict : t -> client:int -> bool
  val revive : t -> client:int -> bool
  val due : t -> now:float -> (int * Spritely.Lifecycle.state) list
  val to_list : t -> (int * Spritely.Lifecycle.state * float) list
  val forget : t -> client:int -> unit
  val copy : t -> t
end

(** One lifecycle operation. [Tick] advances time by one step (the
    courtesy lifetime is {!lifetime_steps} steps); [Scan] is a full
    laundromat pass: read [due] (twice), check it, reap it. *)
type op = Demote of int | Conflict of int | Revive of int | Tick | Scan

type violation = {
  v_inv : string;  (** invariant name, or ["exception"] *)
  v_path : op list;  (** op sequence reaching the violation *)
  v_detail : string;
}

module Make (L : LIFE) : sig
  (** Replay one op sequence from a fresh table, returning the first
      violation. The qcheck property surface. *)
  val replay : ?clients:int -> op list -> violation option

  (** Exhaustive DFS over all op sequences of length [depth] (default
      5) over [clients] (default 2) clients, then [random_runs]
      (default 200) seeded random sequences of length [random_depth]
      (default 20). Returns the first violation found, and the number
      of operations checked. *)
  val run :
    ?clients:int ->
    ?depth:int ->
    ?random_runs:int ->
    ?random_depth:int ->
    ?seed:int64 ->
    unit ->
    violation option * int
end

(** The checker over the real {!Spritely.Lifecycle}. *)
module Lifecycle_checker : sig
  val replay : ?clients:int -> op list -> violation option

  val run :
    ?clients:int ->
    ?depth:int ->
    ?random_runs:int ->
    ?random_depth:int ->
    ?seed:int64 ->
    unit ->
    violation option * int
end
