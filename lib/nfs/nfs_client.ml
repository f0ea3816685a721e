module Core = Client_core

type config = {
  cache_blocks : int;
  invalidate_on_close : bool;
  retry_budget : float option;
      (* ride out server outages this long before Server_unavailable *)
}

let default_config =
  {
    cache_blocks = 4096; (* 16 MB of 4 KB blocks, the paper's client *)
    invalidate_on_close = true;
    retry_budget = None;
  }

(* the attribute cache of one file *)
type attr_cache = {
  mutable fetched : float; (* when g_attrs came from the server *)
  mutable cached_mtime : float; (* mtime the cached blocks belong to *)
}

type t = { core : attr_cache Core.t; config : config }

let block_size = 4096
let now c = Sim.Engine.now (Core.engine c)

(* data-cache consistency: a changed mtime means another client (or a
   local truncate) modified the file; drop our copy *)
let check_mtime ?ctx c (g : attr_cache Core.gnode) =
  if g.g_attrs.Localfs.mtime <> g.g_proto.cached_mtime then begin
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", Core.host c) ]
        "nfs_mtime_invalidations_total";
    Core.proto_event c "mtime_invalidate" [ ("ino", Obs.Trace.Int g.g_ino) ];
    (* our own delayed partial blocks must not be lost *)
    Core.flush ?ctx c g;
    Blockcache.Cache.invalidate_file (Core.cache c) ~file:g.g_ino;
    g.g_proto.cached_mtime <- g.g_attrs.Localfs.mtime
  end

(* Attributes piggybacked on lookup replies refresh the cached values
   but, as in the measured Ultrix client, do not reset the
   attribute-cache timer — only getattr probes (and create, mkdir and
   write replies) do. This is what makes the getattr row of Table 5-2
   nonzero even though every open follows a lookup. Write replies also
   keep the attribute cache in step with our own writes, so they do
   not look like someone else's update. *)
let policy =
  {
    Core.prog = Nfs_server.prog;
    cat = "nfs";
    fresh =
      (fun engine attrs ->
        { fetched = Sim.Engine.now engine; cached_mtime = attrs.Localfs.mtime });
    merge =
      (fun c ctx arrival g attrs ->
        g.g_attrs <- attrs;
        match arrival with
        | Lookup -> check_mtime ~ctx c g
        | Reply -> g.g_proto.fetched <- now c
        | Write ->
            g.g_proto.fetched <- now c;
            g.g_proto.cached_mtime <- attrs.Localfs.mtime);
    on_remove = ignore;
  }

(* adaptive timeout: recently modified files are probed more often
   (3 s), stable ones rarely (up to 150 s), as in the Ultrix client *)
let attr_min = 3.0
let attr_max = 150.0

let attr_timeout (g : attr_cache Core.gnode) =
  let age = g.g_proto.fetched -. g.g_attrs.Localfs.mtime in
  Float.max attr_min (Float.min attr_max (age /. 2.0))

let refresh_attrs t ctx (g : attr_cache Core.gnode) =
  let c = t.core in
  if now c -. g.g_proto.fetched > attr_timeout g then begin
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", Core.host c) ]
        "nfs_attr_probes_total";
    Core.proto_event c "attr_probe" [ ("ino", Obs.Trace.Int g.g_ino) ];
    let attrs = Wire.getattr (Core.call c ctx) (Core.fh_of c g) in
    g.g_attrs <- attrs;
    g.g_proto.fetched <- now c;
    check_mtime ~ctx c g
  end

(* ---- GFS operations ---- *)

let do_getattr t vn =
  Core.op t.core "getattr" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  refresh_attrs t ctx g;
  g.g_attrs

let do_setattr t vn ~size =
  let c = t.core in
  Core.op c "setattr" @@ fun ctx ->
  let g = Core.gnode c vn in
  (* truncation: our cached blocks (including delayed partials) are
     moot *)
  Core.drop c g;
  let attrs = Wire.setattr (Core.call c ctx) (Core.fh_of c g) ~size in
  g.g_attrs <- attrs;
  g.g_proto.fetched <- now c;
  g.g_proto.cached_mtime <- attrs.Localfs.mtime

let do_open t vn _mode =
  Core.op t.core "open" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  Core.proto_event t.core "open" [ ("ino", Obs.Trace.Int g.g_ino) ];
  (* a fresh open restarts the sequential-read detector, so reading
     block 0 counts as sequential and primes read-ahead *)
  g.g_last_read <- -1;
  (* the consistency check made at every open (Section 2.1) — free if
     the attribute cache entry is still fresh *)
  refresh_attrs t ctx g

let do_close t vn _mode =
  let c = t.core in
  Core.op c "close" @@ fun ctx ->
  let g = Core.gnode c vn in
  Core.proto_event c "close"
    [
      ("ino", Obs.Trace.Int g.g_ino);
      ("invalidate", Obs.Trace.Bool t.config.invalidate_on_close);
    ];
  (* synchronously finish all pending write-throughs (Section 2.1):
     flush delayed partial blocks, then drain the write-behind daemon *)
  Core.flush ~ctx c g;
  if t.config.invalidate_on_close then
    (* the measured Ultrix client's bug (Section 5.2): it threw the
       cache away here, forcing re-reads after close/reopen *)
    Blockcache.Cache.invalidate_file (Core.cache c) ~file:g.g_ino

let do_read_block t vn ~index =
  Core.op t.core "read" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  refresh_attrs t ctx g;
  Core.cached_read t.core ctx g ~index

let do_write_block t vn ~index ~stamp ~len =
  Core.op t.core "write" @@ fun ctx ->
  (* full blocks go to the write-behind daemon at once; partial blocks
     are delayed in hope of being filled (footnote 4) *)
  let mode = if len >= block_size then `Async else `Delayed in
  Core.cached_write t.core ctx (Core.gnode t.core vn) ~index ~stamp
    ~len mode

let mount rpc ~client ~server ~root ?(config = default_config) ?(name = "nfs")
    () =
  let core =
    Core.create policy rpc ~client ~server ~root ~name
      ~cache_blocks:config.cache_blocks
      ~retry_budget:config.retry_budget
  in
  let t = { core; config } in
  Core.attach core ~getattr:(do_getattr t) ~setattr:(do_setattr t)
    ~fs_open:(do_open t) ~fs_close:(do_close t) ~read_block:(do_read_block t)
    ~write_block:(do_write_block t);
  t

let fs t = Core.fs t.core
let cache t = Core.cache t.core
