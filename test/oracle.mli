(** Cross-protocol consistency oracle.

    Replays op sequences (the table machine's {!Check.Invariant.op}s)
    through the real simulated client–server stacks — NFS, SNFS, RFS
    and the Kent block protocol — and diffs every observable read, and
    the final server-side file contents after a cache quiesce, against
    a serial reference model (latest stamp per file).

    SNFS, RFS and Kent guarantee consistency for serialized
    cross-client access, so any divergence is a failure. NFS's
    attribute-cache staleness is the paper's documented divergence
    (Section 2.1 / Table 5-7): it is counted and reported, never a
    failure — but NFS's write-through discipline still makes the
    post-quiesce server state exact, so [server_divergence] is strict
    for all four protocols. *)

type outcome = {
  reads : int;  (** read observations diffed against the model *)
  stale : int;  (** reads that disagreed with the serial model *)
  server_divergence : int;
      (** files whose server-side copy disagreed after quiesce *)
}

(** Replay each checker op sequence over a fresh simulated world and
    sum the outcomes: [Open]s become creates/writes or reading opens
    held across subsequent ops, [Close]s release them, [Note_clean]
    becomes fsync, [Forget] closes everything that client holds,
    [Remove] unlinks. Reads are diffed at open; at the end of each
    sequence all descriptors are closed, caches quiesced and the server
    contents diffed. *)
val replay_all :
  Experiments.Stack.kind -> Check.Invariant.op list list -> outcome
