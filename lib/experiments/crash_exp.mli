(** The crash campaign: a seeded {!Crashplan} fault schedule — server
    crash and reboot mid-Andrew, two client crashes without close, one
    client partition that heals — driven end-to-end over a protocol
    stack, with post-quiesce oracle verification.

    A side model records every write a {e surviving} client had
    acknowledged (fsync or close completed); after the schedule plays
    out and the system quiesces, a fresh verifier client reads every
    model file back. Any mismatch is an acknowledged-write loss and
    fails the run. Writes left unflushed in crashed clients' caches
    are accounted as [lost_files] (expected delayed-write data loss),
    not failures.

    Under SNFS the schedule additionally drives the laundromat's whole
    client lifecycle: both crashed clients are demoted to Courtesy; one
    is reaped when its courtesy lifetime expires, the other when a
    surviving client's open conflicts with its state; the partitioned
    client is demoted and then revived with its state intact, resuming
    without a reopen. *)

(** {!Stack.kind}, re-exported under the same constructors. *)
type protocol = Stack.kind = Nfs | Snfs | Rfs | Kent

(** {!Stack.kind_name}: ["nfs"], ["snfs"], ["rfs"], ["kent"]. *)
val protocol_name : protocol -> string
val all_protocols : protocol list

type verdict = {
  protocol : string;
  seed : int64;
  files_checked : int;  (** model files the verifier read back *)
  divergent : int;  (** acknowledged surviving-client writes lost *)
  lost_files : int;  (** unacknowledged crashed-client writes lost *)
  andrew_total : float;  (** client0's Andrew elapsed time *)
  lifecycle : Snfs.Snfs_server.lifecycle_stats option;  (** SNFS only *)
  courtesy_resumed : bool;
      (** SNFS: the partitioned client was revived and never reaped *)
  ok : bool;
}

(** One protocol, one seed. Deterministic: the same seed yields the
    same verdict, trace, and metrics, byte for byte. *)
val run :
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  protocol:protocol ->
  seed:int64 ->
  unit ->
  verdict

val table : verdict list -> string
