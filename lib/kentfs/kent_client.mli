(** The block-ownership client (see {!Kent_server}).

    Reads cache freely: the server tracks this client in each block's
    copy set and invalidates the copy if another client acquires the
    block. Writes first acquire block ownership (one RPC per block, on
    the first write only), after which the data stays in the local
    cache under the delayed-write policy — even if other clients are
    actively using *other* blocks of the same file.

    No open/close RPCs and no attribute probes exist in this protocol;
    attributes are fetched at open (they are kept current by the
    server, whose notion of file size advances at acquire time). *)

type config = {
  cache_blocks : int;
  read_ahead : bool;
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
