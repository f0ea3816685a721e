(** The {!Spritely.Lifecycle} client state machine (Active -> Courtesy
    -> Expirable -> reaped), for {!Explore}.

    Three clients; time advances in unit steps and the courtesy
    lifetime is two steps. The implementation is checked after each
    operation against a pure reference model plus three named
    invariants:

    - {b expirable-only-on-conflict}: a client observed [Expirable]
      must have been promoted by [note_conflict] from [Courtesy] —
      never by [demote] or by time;
    - {b courtesy-cannot-linger-past-lifetime}: every [Courtesy] client
      demoted at least a courtesy lifetime ago appears in [due];
    - {b reclaim-idempotence}: [due] is read-only (two reads agree),
      reaping everything due leaves nothing due, and double-[forget]
      is harmless.

    The fingerprint is each client's state, with a [Courtesy] client's
    age clipped at the lifetime (past it, every age behaves alike), so
    the canonical space has at most 5{^3} = 125 states and the
    explorer reaches its fixpoint.

    Like {!Table_machine}, the machine is a functor so the negative
    suite can instantiate it over deliberately-buggy wrappers and
    prove each invariant bites. *)

(** The slice of {!Spritely.Lifecycle} the machine drives. *)
module type LIFE = sig
  type t

  val create : unit -> t
  val state : t -> client:int -> Spritely.Lifecycle.state
  val demote : t -> client:int -> now:float -> bool
  val note_conflict : t -> client:int -> bool
  val revive : t -> client:int -> bool
  val due :
    t -> now:float -> courtesy_lifetime:float ->
    (int * Spritely.Lifecycle.state) list
  val to_list : t -> (int * Spritely.Lifecycle.state * float) list
  val forget : t -> client:int -> unit
  val copy : t -> t
end

(** One lifecycle operation. [Tick] advances time by one step; [Scan]
    is a full laundromat pass: read [due] (twice), check it, reap it. *)
type op = Demote of int | Conflict of int | Revive of int | Tick | Scan

val ops_to_string : op list -> string

module Make (L : LIFE) : sig
  type state

  val machine : (state, op) Explore.machine
end
