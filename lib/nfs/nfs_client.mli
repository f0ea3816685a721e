(** The NFS client, modelled on the Ultrix 2.2 reference-port
    behaviour the paper measured (Sections 2.1, 4.2, 5.2):

    - an adaptive attribute cache, refreshed on open and on expiry,
      whose timeout is half the file's age, fixed at the Ultrix
      client's bounds of 3 s and 150 s; a changed modification time
      invalidates the cached data blocks;
    - write-through via an asynchronous daemon: full blocks are handed
      to a biod-style writer immediately; partial blocks are delayed
      (footnote 4) until filled or until close;
    - close synchronously finishes all pending write-throughs;
    - optionally (and by default, matching the measured system), the
      client data cache is invalidated when a file is closed — the bug
      the paper calls out as responsible for NFS's excess read RPCs in
      Tables 5-2 and 5-4;
    - one-block read-ahead on sequential reads.

    The result implements the GFS interface ({!Vfs.Fs.t}), so workloads
    cannot tell it from the local file system. *)

type config = {
  cache_blocks : int;  (** client buffer cache capacity, in blocks *)
  invalidate_on_close : bool;  (** the Ultrix bug; [true] in the paper *)
  retry_budget : float option;
      (** when set, every RPC rides out server outages up to this many
          seconds (bounded exponential backoff between fresh calls)
          before raising {!Netsim.Rpc.Server_unavailable}; [None]
          (default) keeps the classic single-schedule {!Netsim.Rpc.Timeout} *)
}

val default_config : config

type t

(** [mount rpc ~client ~server ~root config] builds an NFS client on
    host [client] talking to the {!Nfs_server} on host [server] whose
    root file handle is [root]. *)
val mount :
  Netsim.Rpc.t ->
  client:Netsim.Net.Host.t ->
  server:Netsim.Net.Host.t ->
  root:Wire.fh ->
  ?config:config ->
  ?name:string ->
  unit ->
  t

(** The GFS interface to hand to {!Vfs.Mount.mount}. *)
val fs : t -> Vfs.Fs.t

val cache : t -> Blockcache.Cache.t
