(** Per-client lifecycle for the server's crash detector: the NFSD-style
    [Active -> Courtesy -> Expirable -> reaped] state machine behind
    {!Snfs_server}'s laundromat (paper Section 2.4: client crashes are
    detected "by tracking the passage of time").

    A client that stops answering is {e demoted} to [Courtesy]: its open
    and dirty-block state is retained by the caller, in the hope that it
    was merely partitioned and will resume. A Courtesy client is
    {e promoted} to [Expirable] only by a conflict — another client's
    open prescribed a callback it cannot answer — never by the mere
    passage of time. The periodic laundromat {e reaps} every Expirable
    client and every Courtesy client older than the courtesy lifetime
    ("courtesy clients cannot linger indefinitely"), and {e revives} a
    Courtesy client that is heard from again, with all state intact.

    The module is pure bookkeeping: every time-dependent operation takes
    [~now] explicitly, nothing here reads a clock, and all listings are
    sorted by client id so iteration order is deterministic. Active
    clients are represented by absence; only suspects are stored.

    Invariants (checked exhaustively by [Check.Life]):
    - {b expirable-only-on-conflict}: an entry is [Expirable] only after
      {!note_conflict} succeeded on it while it was [Courtesy];
    - {b courtesy-cannot-linger-past-lifetime}: any [Courtesy] entry
      with [now - since >= courtesy_lifetime] appears in {!due} [~now];
    - {b reclaim-idempotence}: {!due} is read-only (two calls at the
      same [now] agree), and after forgetting everything due, a third
      call returns the empty list; {!forget} of an absent client is a
      no-op. *)

type state = Active | Courtesy | Expirable

val state_to_string : state -> string

type t

(** [create ~courtesy_lifetime ()] — how long a Courtesy client may
    stay before the laundromat reaps it anyway (default 300 s). A
    lifetime of [0] degenerates to the legacy one-step reaper: a
    demoted client is due immediately. *)
val create : ?courtesy_lifetime:float -> unit -> t

val courtesy_lifetime : t -> float

(** [Active] when the client has no entry. *)
val state : t -> client:int -> state

(** Number of non-Active clients (fast guard for per-RPC revival
    checks: zero means nothing to revive). *)
val nonactive : t -> int

(** [demote t ~client ~now] moves an Active client to Courtesy,
    recording [now] as its demotion time. Returns [false] (no change)
    if the client is already Courtesy or Expirable. *)
val demote : t -> client:int -> now:float -> bool

(** [note_conflict t ~client] promotes a Courtesy client to Expirable
    (a conflicting open or mount-point operation needs its state gone).
    Returns [false] (no change) for Active or already-Expirable
    clients: conflicts are the only road to Expirable. *)
val note_conflict : t -> client:int -> bool

(** [revive t ~client] returns a Courtesy client to Active (it was
    heard from in time); its entry disappears. Returns [false] for
    Active clients (nothing to do) and Expirable ones (too late: a
    conflict already claimed its state). *)
val revive : t -> client:int -> bool

(** Every client the laundromat must reap now: all Expirable clients
    plus Courtesy clients demoted at least a courtesy lifetime ago.
    Read-only; sorted by client id. *)
val due : t -> now:float -> (int * state) list

(** Non-Active clients with their state and demotion time, sorted by
    client id (the laundromat's probe list). *)
val to_list : t -> (int * state * float) list

(** Remove a client's entry (it was reaped, or its state is gone for
    another reason). Idempotent. *)
val forget : t -> client:int -> unit

(** [(courtesy, expirable)] entry counts, for per-state gauges. *)
val counts : t -> int * int

(** Drop every entry: the server rebooted and its volatile lifecycle
    bookkeeping died with it. *)
val reset : t -> unit

(** Independent copy (for model-checker branching). *)
val copy : t -> t
