module Core = Nfs.Client_core
module Wire = Nfs.Wire

type config = {
  cache_blocks : int;
  retry_budget : float option;
}

let default_config =
  { cache_blocks = 4096; retry_budget = None }

(* the version our cached copy of one file belongs to *)
type version = { mutable cached_version : int option }
type gnode = version Core.gnode

type t = { core : version Core.t }

let block_size = 4096

let policy =
  {
    Core.prog = Rfs_server.prog;
    cat = "rfs";
    fresh = (fun _ _ -> { cached_version = None });
    merge = (fun _ _ _ g attrs -> g.g_attrs <- attrs);
    on_remove = ignore;
  }

(* open RPC: returns the file's version for cache revalidation *)
let rfs_open t ctx (g : gnode) ~write =
  let version, attrs =
    Wire.invoke (Core.call t.core ctx) Wire.Proc.rfs_open
      (Core.fh_of t.core g, write)
  in
  g.g_attrs <- attrs;
  (* writers bump the version; our own bump must not look like someone
     else's update, so accept either exact match or the bump we caused *)
  let valid =
    match g.g_proto.cached_version with
    | None -> false
    | Some v -> v = version || (write && v = version - 1)
  in
  if not valid then Core.drop t.core g;
  Core.proto_event t.core "open"
    [
      ("ino", Obs.Trace.Int g.g_ino);
      ("write", Obs.Trace.Bool write);
      ("revalidated", Obs.Trace.Bool valid);
    ];
  g.g_proto.cached_version <- Some version

let do_open t vn mode =
  Core.op t.core "open" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  g.g_last_read <- -1;
  rfs_open t ctx g ~write:(Vfs.Fs.mode_writes mode)

let do_close t vn mode =
  Core.op t.core "close" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  (* write-through discipline: everything pending reaches the server
     before the close *)
  Core.flush ~ctx t.core g;
  (* the close RPC is SNFS's *)
  Wire.snfs_close (Core.call t.core ctx) (Core.fh_of t.core g)
    ~write_mode:(Vfs.Fs.mode_writes mode)

let do_read_block t vn ~index =
  Core.op t.core "read" @@ fun ctx ->
  Core.cached_read t.core ctx (Core.gnode t.core vn) ~index

let do_write_block t vn ~index ~stamp ~len =
  Core.op t.core "write" @@ fun ctx ->
  let mode = if len >= block_size then `Async else `Delayed in
  Core.cached_write t.core ctx (Core.gnode t.core vn) ~index ~stamp ~len mode

(* no periodic probes: the server invalidates us if anything changes *)
let do_getattr t vn = (Core.gnode t.core vn).g_attrs

let do_setattr t vn ~size =
  Core.op t.core "setattr" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  Core.drop t.core g;
  g.g_attrs <- Wire.setattr (Core.call t.core ctx) (Core.fh_of t.core g) ~size

let on_callback t (args : Wire.callback_args) =
  ( args.cb_ctx,
    fun cctx ->
      let ino = args.cb_fh.ino in
      if Obs.Metrics.on () then
        Obs.Metrics.incr
          ~labels:[ ("host", Core.host t.core) ]
          "rfs_invalidations_served_total";
      Core.proto_event t.core "invalidate"
        (Obs.Causal.arg cctx [ ("ino", Obs.Trace.Int ino) ]);
      match Core.find_opt t.core ino with
      | None -> ()
      | Some g ->
          (* drop clean copies only: our own writes still in flight (or
             staged partial blocks) are newer than the invalidating
             write and must not be lost — and waiting for them here
             could deadlock against the server's callback threads *)
          Blockcache.Cache.drop_clean (Core.cache t.core) ~file:ino;
          g.g_proto.cached_version <- None )

let mount rpc ~client ~server ~root ?(config = default_config) ?(name = "rfs")
    () =
  let core =
    Core.create policy rpc ~client ~server ~root ~name
      ~cache_blocks:config.cache_blocks
      ~retry_budget:config.retry_budget
  in
  let t = { core } in
  Core.serve_callbacks core ~ping:false Wire.Proc.callback (on_callback t);
  Core.attach core ~getattr:(do_getattr t) ~setattr:(do_setattr t)
    ~fs_open:(do_open t) ~fs_close:(do_close t) ~read_block:(do_read_block t)
    ~write_block:(do_write_block t);
  t

let fs t = Core.fs t.core
let cache t = Core.cache t.core
