(** The RFS-style client (paper Section 2.5).

    Write-through like NFS (async write-behind, partial blocks delayed,
    close waits for pending writes), but stateful: it opens and closes
    files at the server, caches data without periodic attribute probes,
    revalidates its cache by version number at open, and drops it when
    the server sends an invalidation (which the server does only when
    another client actually writes). *)

type config = {
  cache_blocks : int;
  retry_budget : float option;
      (** seconds of server outage to ride out per RPC before
          {!Netsim.Rpc.Server_unavailable}; [None] = classic timeout *)
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
