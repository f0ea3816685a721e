(** One bounded breadth-first explorer for the protocol state machines.

    A machine is its initial state, the ops it offers in a state, a
    [step] that returns the next state and the invariants the step
    violated, and a canonical fingerprint. The explorer expands the
    reachable states level by level, deduplicating them by fingerprint,
    and runs the machine's once-per-state check on each new distinct
    state. A machine whose canonical space is finite is explored to a
    fixpoint: the frontier empties before the bounds are hit.

    {!Table_machine} (Table 4-1) and {!Life_machine} (the client
    lifecycle of Section 2.4) are the two machines [snfs_check] runs. *)

(** A named invariant the machine found broken: its name and a
    human-readable detail. *)
type finding = string * string

type ('state, 'op) machine = {
  initial : 'state;
  ops : 'state -> 'op list;  (** the legal ops of a state, in a fixed order *)
  step : 'state -> 'op -> 'state * finding list;
      (** must not mutate its argument: the explorer branches on it *)
  fingerprint : 'state -> string;
      (** equal for states with the same future behaviour *)
  check_new : 'state -> finding list;
      (** runs once per new distinct state *)
}

type 'op violation = {
  v_inv : string;  (** invariant name; ["no-exception"] when a step raised *)
  v_path : 'op list;  (** op sequence reaching the violation *)
  v_detail : string;
}

type stats = {
  distinct_states : int;
  transitions : int;
  deepest : int;  (** depth of the deepest newly-discovered state *)
  exhausted : bool;  (** the frontier emptied: every reachable state seen *)
}

type 'op result = {
  stats : stats;
  violations : 'op violation list;  (** the first 25, in discovery order *)
}

(** Explore up to [depth] (default 8) levels from [initial], stopping
    when [max_states] (default 60,000) distinct states are known. *)
val run : ?depth:int -> ?max_states:int -> ('state, 'op) machine -> 'op result
