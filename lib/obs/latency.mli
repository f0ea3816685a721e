(** Per-procedure round-trip latency recording.

    A registry of {!Stats.Histogram}s keyed by [(prog, proc, outcome)].
    The RPC layer records every call's round-trip time here — successes
    under {!Success}, calls that exhausted their retransmission
    schedule under {!Timeout} — and {!table} renders the per-procedure
    percentile summary (the "where does the time go" companion to the
    paper's operation-count tables), broken down by outcome so
    fault-injection runs show where the timed-out calls waited. *)

type t

(** How the call ended. [Timeout] covers calls that gave up after the
    full retransmission schedule; their recorded duration is the time
    spent waiting before giving up. *)
type outcome = Success | Timeout

val create : unit -> t

(** Record one sample, in (simulated) seconds. [outcome] defaults to
    [Success]. *)
val record : t -> ?outcome:outcome -> prog:string -> proc:string -> float -> unit

(** The [Success] histogram for one procedure, created empty on first
    use. *)
val histogram : t -> prog:string -> proc:string -> Stats.Histogram.t

(** Timed-out calls recorded for one procedure. *)
val errors : t -> prog:string -> proc:string -> int

val is_empty : t -> bool

(** Samples across all outcomes. *)
val total_samples : t -> int

(** Timed-out samples across all procedures. *)
val total_errors : t -> int

(** Plain-text table with one row per (procedure, outcome) recorded:
    procedure, outcome (ok/timeout), n, and mean/p50/p90/p99/max of
    that outcome's calls in ms — so timed-out calls get their own
    latency row instead of sharing the success row as a bare count. *)
val table : t -> string
