(** The Spritely NFS client (paper Sections 3, 4.2 and 6).

    Differences from the NFS client:
    - explicit [open]/[close] RPCs; the open reply says whether the
      file may be cached and carries the version numbers that decide
      whether the client's cached copy is still valid (Section 3.1) —
      there are *no* periodic attribute probes;
    - cachable files use the traditional Unix delayed-write policy:
      dirty blocks sit in the client cache until the 30-second syncer,
      eviction, a callback, or an fsync pushes them out — and deleting
      the file first cancels them entirely (Section 5.4);
    - non-cachable (write-shared) files bypass the cache in both
      directions, with read-ahead disabled and attributes always
      fetched from the server (Section 4.2.1);
    - the client runs an RPC service to field the server's callbacks
      (write back and/or invalidate, Section 4.2.2);
    - optional extensions from Section 6: {b delayed close} (a close is
      withheld in anticipation of a quick reopen; callbacks and an idle
      timer force it out) and a {b keepalive} daemon that detects
      server reboots and replays open state ([reopen]) to rebuild the
      server's tables (Section 2.4). *)

type config = {
  cache_blocks : int;
  delayed_close : bool;  (** Section 6.2 extension; off in the paper *)
  delayed_close_timeout : float;
      (** spontaneous close after this much idle time *)
  retry_budget : float option;
      (** seconds of server outage to ride out per RPC before
          {!Netsim.Rpc.Server_unavailable}; [None] = classic timeout.
          Size it past reboot-plus-grace so opens retried during the
          Section 2.4 grace period eventually go through. *)
}

val default_config : config

type t

val mount :
  Netsim.Rpc.t ->
  client:Netsim.Net.Host.t ->
  server:Netsim.Net.Host.t ->
  root:Nfs.Wire.fh ->
  ?config:config ->
  ?name:string ->
  unit ->
  t

val fs : t -> Vfs.Fs.t
val cache : t -> Blockcache.Cache.t

(** Start the client's delayed-write daemon (the 30 s [/etc/update]
    sync); Table 5-5 disables it. *)
val start_syncer : t -> interval:float -> unit

(** Start the keepalive daemon: pings the server every [interval]
    seconds; on a boot-epoch change, re-sends this client's open state
    so the server can rebuild its tables. *)
val start_keepalive : t -> interval:float -> unit
