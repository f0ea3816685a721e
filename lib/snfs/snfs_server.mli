(** The Spritely NFS server (paper Sections 3 and 4.3).

    The NFS server plus:
    - [open] and [close] RPC procedures driving the
      {!Spritely.State_table};
    - server-to-client [callback] RPCs, performed *before* the open
      that triggered them is answered; at most [threads - 1] handler
      threads may be performing callbacks at once so the write-backs
      they provoke can always be serviced (Section 3.2);
    - a crashed callback target is forgotten ({!Spritely.State_table.forget_client});
      the open proceeds but the file is flagged possibly-inconsistent;
    - [ping]/[reopen] procedures implementing the crash-recovery
      protocol sketched in Section 2.4: after a reboot, clients detect
      the new boot epoch and re-send their open state, from which the
      state table is reconstructed. *)

type t

val prog : string

(** [serve rpc host ~fsid fs] exports [fs] under the SNFS protocol.
    [recovery_grace] (default 0: disabled) enables the Section 2.4
    grace period: for that many seconds after a reboot, opens from
    clients that have not yet replayed their state via [reopen] are
    refused with a retryable error, so the consistency state cannot
    change "until the server is willing to allow it". The state table
    holds {!Spritely.State_table.create}'s default of 1000 entries. *)
val serve :
  Netsim.Rpc.t ->
  Netsim.Net.Host.t ->
  ?threads:int ->
  ?recovery_grace:float ->
  fsid:int ->
  Localfs.t ->
  t

(** An implicit open for a client that speaks plain NFS (the hybrid
    server of Section 6.1): inside the file's consistency critical
    section, like an [open], it opens the file in the state table and
    delivers the callbacks that prescribes, under [ctx], the inducing
    operation's causal context. Raises
    {!Spritely.State_table.Table_full} when the table is full. *)
val open_implicit :
  t -> ctx:Obs.Causal.t -> file:int -> client:int -> write:bool -> unit

val root_fh : t -> Nfs.Wire.fh
val service : t -> Netsim.Rpc.service
val counters : t -> Stats.Counter.t
val state_table : t -> Spritely.State_table.t

(** Callbacks issued since the last boot. A callback that fails (its
    client is dead) counts in the metrics registry as
    [snfs_callbacks_failed_total]. *)
val callbacks_sent : t -> int

(** The underlying basic-procedure core (shared with the hybrid
    server). *)
val core : t -> Nfs.Wire.server_core

(** Start the client-lifecycle laundromat, the crash detector of
    Section 2.4 done the NFSD way. Every [interval] seconds it probes
    clients with table state that have been silent at least [lease]
    seconds; an unresponsive client is demoted to
    {!Spritely.Lifecycle.Courtesy} with all its opens and dirty-block
    accounting retained (it may only be partitioned). A Courtesy
    client is promoted to [Expirable] — and reaped on the spot — only
    when another client's open prescribes a callback against it (a
    conflict); otherwise it is reaped after [courtesy_lifetime]
    seconds, because courtesy clients cannot linger indefinitely. A
    Courtesy client heard from again (its own RPC, or a laundromat
    probe answered after a partition heals) is revived to Active with
    its state intact: no reopen storm, no grace period. Raises
    [Invalid_argument] if a laundromat is already running. *)
val start_laundromat :
  ?lease:float -> ?courtesy_lifetime:float -> t -> interval:float -> unit

(** The lifecycle state of one client address ([Active] when no
    laundromat is running or the client is not suspect). *)
val client_state : t -> client:int -> Spritely.Lifecycle.state

(** Laundromat odometer: passes run, demotions to Courtesy, revivals
    back to Active, and reaps by the state they happened from. *)
type lifecycle_stats = {
  laundromat_runs : int;
  demotions : int;
  revivals : int;
  reaped_courtesy : int;
  reaped_expirable : int;
}

val lifecycle_stats : t -> lifecycle_stats

(** Clients forgotten by the laundromat so far (any state). *)
val clients_reaped : t -> int
