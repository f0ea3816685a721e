module Core = Nfs.Client_core
module Wire = Nfs.Wire

type config = {
  cache_blocks : int;
  delayed_close : bool;
  delayed_close_timeout : float;
  retry_budget : float option;
}

let default_config =
  {
    cache_blocks = 4096;
    delayed_close = false;
    delayed_close_timeout = 120.0;
    retry_budget = None;
  }

type unsent_close = { u_id : int; u_write : bool }

(* the open state of one file *)
type open_state = {
  mutable cached_version : int option;
  mutable cache_enabled : bool;
  mutable reads : int; (* local open counts, by declared mode *)
  mutable writes : int;
  mutable unsent : unsent_close list; (* delayed closes, Section 6.2 *)
}

type gnode = open_state Core.gnode

type t = {
  core : open_state Core.t;
  config : config;
  mutable next_unsent_id : int;
  mutable last_epoch : int option; (* server boot epoch, for keepalive *)
}

(* Server attributes are stale while we hold valid (possibly dirty)
   cached data: the delayed writes have not reached the server yet, so
   our local size and mtime are the authoritative ones. *)
let merge_attrs (g : gnode) (server : Localfs.attrs) =
  if Option.is_some g.g_proto.cached_version then
    {
      server with
      Localfs.size = Int.max server.Localfs.size g.g_attrs.Localfs.size;
      mtime = Float.max server.Localfs.mtime g.g_attrs.Localfs.mtime;
    }
  else server

(* a write-back reply is the server catching up with our own data *)
let policy =
  {
    Core.prog = Snfs_server.prog;
    cat = "snfs";
    fresh =
      (fun _ _ ->
        {
          cached_version = None;
          cache_enabled = false;
          reads = 0;
          writes = 0;
          unsent = [];
        });
    merge =
      (fun _ _ arrival g attrs ->
        g.g_attrs <-
          (match arrival with
          | Lookup | Reply -> merge_attrs g attrs
          | Write -> attrs));
    on_remove = (fun g -> g.g_proto.unsent <- []);
  }

let engine t = Core.engine t.core

let drop_cache t g =
  Core.drop t.core g;
  Blockcache.Cache.invalidate_file (Core.cache t.core) ~file:g.Core.g_ino

(* ---- delayed close (Section 6.2) ---- *)

let send_close t ctx g ~write =
  Wire.snfs_close (Core.call t.core ctx) (Core.fh_of t.core g) ~write_mode:write

(* release every withheld close (a callback arrived, or the file is
   going away) *)
let release_unsent t ctx (g : gnode) =
  let unsent = g.g_proto.unsent in
  g.g_proto.unsent <- [];
  (* delayed close (Section 6.2) accumulates at most a handful *)
  (* snfs-fanout: bounded — the withheld closes of one open-file record *)
  List.iter (fun u -> send_close t ctx g ~write:u.u_write) unsent

let add_unsent t (g : gnode) ~write =
  let id = t.next_unsent_id in
  t.next_unsent_id <- id + 1;
  let st = g.g_proto in
  st.unsent <- st.unsent @ [ { u_id = id; u_write = write } ];
  (* spontaneous close if nobody reopens for a while *)
  Sim.Engine.after (engine t) t.config.delayed_close_timeout (fun () ->
      if List.exists (fun u -> u.u_id = id) st.unsent then
        Sim.Engine.spawn (engine t) ~name:"snfs.delayed_close" (fun () ->
            if List.exists (fun u -> u.u_id = id) st.unsent then begin
              st.unsent <- List.filter (fun u -> u.u_id <> id) st.unsent;
              (* background expiry: no client operation induced it *)
              send_close t Obs.Causal.none g ~write
            end))

let take_unsent st ~write =
  match List.partition (fun u -> u.u_write = write) st.unsent with
  | _ :: rest_same, others ->
      st.unsent <- rest_same @ others;
      true
  | [], _ -> false

(* ---- open / close ---- *)

let note_cache_mode t (g : gnode) enabled =
  (* a Table 4-1 consistency decision arrived: count actual flips of
     this client's caching mode *)
  if Obs.Metrics.on () && g.g_proto.cache_enabled <> enabled then
    Obs.Metrics.incr
      ~labels:
        [
          ("host", Core.host t.core);
          ("to", (if enabled then "enabled" else "disabled"));
        ]
      "snfs_cache_mode_transitions_total"

let process_open_reply t ctx (g : gnode) ~write (r : Wire.open_reply) =
  let st = g.g_proto in
  let valid =
    Spritely.Version.valid_for_open ~cached:st.cached_version
      ~latest:r.version ~previous:r.prev_version ~write
  in
  if valid then
    (* our cached copy (and local size, which the server has not seen
       because the writes are still delayed here) stays authoritative *)
    g.g_attrs <- merge_attrs g r.attrs
  else begin
    (* a stale copy can hold no dirty blocks we are entitled to keep *)
    ignore (Blockcache.Cache.cancel_dirty (Core.cache t.core) ~file:g.g_ino);
    st.cached_version <- None;
    g.g_attrs <- r.attrs
  end;
  if r.cache_enabled then begin
    note_cache_mode t g true;
    st.cache_enabled <- true;
    st.cached_version <- Some r.version
  end
  else begin
    (* write-shared: return valid dirty data, then stop caching *)
    note_cache_mode t g false;
    if valid then Core.flush ~ctx t.core g;
    drop_cache t g;
    st.cache_enabled <- false;
    st.cached_version <- None
  end

let do_open t vn mode =
  Core.op t.core "open" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  let st = g.g_proto in
  g.g_last_read <- -1;
  let write = Vfs.Fs.mode_writes mode in
  if t.config.delayed_close && take_unsent st ~write then begin
    (* the server still thinks we have this open: reuse it *)
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", Core.host t.core) ]
        "snfs_delayed_close_hits_total"
  end
  else begin
    (* a rebooted server refuses opens during its recovery grace
       period; back off and retry until it is willing *)
    let rec attempt tries =
      match
        Wire.snfs_open (Core.call t.core ctx) (Core.fh_of t.core g)
          ~write_mode:write
      with
      | reply -> process_open_reply t ctx g ~write reply
      | exception Localfs.Error Localfs.Again when tries < 120 ->
          Sim.Engine.sleep (engine t) 2.0;
          attempt (tries + 1)
    in
    attempt 0
  end;
  Core.proto_event t.core "open"
    [
      ("ino", Obs.Trace.Int g.g_ino);
      ("write", Obs.Trace.Bool write);
      ("cache_enabled", Obs.Trace.Bool st.cache_enabled);
    ];
  if write then st.writes <- st.writes + 1 else st.reads <- st.reads + 1

let do_close t vn mode =
  Core.op t.core "close" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  let st = g.g_proto in
  let write = Vfs.Fs.mode_writes mode in
  if write then st.writes <- st.writes - 1 else st.reads <- st.reads - 1;
  Core.proto_event t.core "close"
    [
      ("ino", Obs.Trace.Int g.g_ino);
      ("write", Obs.Trace.Bool write);
      ("delayed", Obs.Trace.Bool t.config.delayed_close);
    ];
  (* no flush: dirty blocks stay cached under the delayed-write policy *)
  if t.config.delayed_close then add_unsent t g ~write
  else send_close t ctx g ~write

(* ---- data path: write-shared files bypass the cache (Section 4.2.1) ---- *)

let do_read_block t vn ~index =
  Core.op t.core "read" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  if g.g_proto.cache_enabled then Core.cached_read t.core ctx g ~index
  else Wire.read (Core.call t.core ctx) (Core.fh_of t.core g) ~index

let do_write_block t vn ~index ~stamp ~len =
  Core.op t.core "write" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  if g.g_proto.cache_enabled then
    Core.cached_write t.core ctx g ~index ~stamp ~len `Delayed
  else
    g.g_attrs <-
      Wire.write (Core.call t.core ctx) (Core.fh_of t.core g) ~index ~stamp ~len

let do_getattr t vn =
  let g = Core.gnode t.core vn in
  let st = g.g_proto in
  if (not st.cache_enabled) && st.reads + st.writes > 0 then begin
    Core.op t.core "getattr" @@ fun ctx ->
    (* write-shared files always fetch attributes (Section 4.2.1) *)
    let attrs = Wire.getattr (Core.call t.core ctx) (Core.fh_of t.core g) in
    g.g_attrs <- attrs;
    attrs
  end
  else g.g_attrs

let do_setattr t vn ~size =
  Core.op t.core "setattr" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  drop_cache t g;
  g.g_attrs <-
    Wire.setattr (Core.call t.core ctx) (Core.fh_of t.core g) ~size

(* ---- callback service (Section 4.2.2) ---- *)

let on_callback t (args : Wire.callback_args) =
  ( args.cb_ctx,
    fun cctx ->
      let ino = args.cb_fh.ino in
      if Obs.Metrics.on () then
        Obs.Metrics.incr
          ~labels:
            [
              ("host", Core.host t.core);
              ( "kind",
                match (args.cb_writeback, args.cb_invalidate) with
                | true, true -> "writeback_invalidate"
                | true, false -> "writeback"
                | false, true -> "invalidate"
                | false, false -> "noop" );
            ]
          "snfs_callbacks_served_total";
      Core.proto_event t.core "callback"
        (Obs.Causal.arg cctx
           [
             ("ino", Obs.Trace.Int ino);
             ("writeback", Obs.Trace.Bool args.cb_writeback);
             ("invalidate", Obs.Trace.Bool args.cb_invalidate);
           ]);
      match Core.find_opt t.core ino with
      | None -> () (* nothing cached; trivially satisfied *)
      | Some g ->
          (* a delayed-close file must really close so the new client
             can cache it (Section 6.2) *)
          release_unsent t cctx g;
          if args.cb_writeback then Core.flush ~ctx:cctx t.core g;
          if args.cb_invalidate then begin
            drop_cache t g;
            g.g_proto.cache_enabled <- false;
            g.g_proto.cached_version <- None
          end )

(* ---- crash recovery (Section 2.4) ---- *)

let build_reports t =
  let cache = Core.cache t.core in
  (* the reopen protocol (Section 2.4) reports the full per-client state *)
  Core.fold
    (fun (g : gnode) acc ->
      let st = g.g_proto in
      let unsent_reads =
        List.length (List.filter (fun u -> not u.u_write) st.unsent)
      in
      let unsent_writes =
        List.length (List.filter (fun u -> u.u_write) st.unsent)
      in
      let readers = st.reads + unsent_reads in
      let writers = st.writes + unsent_writes in
      let dirty = Blockcache.Cache.dirty_count cache ~file:g.g_ino > 0 in
      if readers > 0 || writers > 0 || dirty then
        ( (g.g_ino, readers, writers),
          (st.cache_enabled, dirty, Option.value ~default:0 st.cached_version)
        )
        :: acc
      else acc)
    t.core []
  |> List.sort compare

let recover_now t =
  let reports = build_reports t in
  Core.proto_event t.core "reopen"
    [ ("files", Obs.Trace.Int (List.length reports)) ];
  Wire.invoke (Core.call t.core Obs.Causal.none) Wire.Proc.reopen reports

let start_keepalive t ~interval =
  let rec loop () =
    Sim.Engine.sleep (engine t) interval;
    (match Wire.invoke (Core.call t.core Obs.Causal.none) Wire.Proc.ping () with
    | epoch -> (
        match t.last_epoch with
        | None -> t.last_epoch <- Some epoch
        | Some known when epoch <> known ->
            (* the server rebooted: rebuild its state from ours *)
            t.last_epoch <- Some epoch;
            recover_now t
        | Some _ -> ())
    | exception Localfs.Error _ -> () (* not an SNFS server *)
    | exception Netsim.Rpc.Timeout _ -> () (* server down; try again later *)
    | exception Netsim.Rpc.Server_unavailable _ ->
        () (* budgeted mount: outage outlasted the budget; keep pinging *));
    loop ()
  in
  Sim.Engine.spawn (engine t) ~name:"snfs.keepalive" loop

(* ---- construction ---- *)

let mount rpc ~client ~server ~root ?(config = default_config) ?(name = "snfs")
    () =
  let core =
    Core.create policy rpc ~client ~server ~root ~name
      ~cache_blocks:config.cache_blocks
      ~retry_budget:config.retry_budget
  in
  let t = { core; config; next_unsent_id = 0; last_epoch = None } in
  (* the client fields the server's callbacks and laundromat pings *)
  Core.serve_callbacks core ~ping:true Wire.Proc.callback (on_callback t);
  Core.attach core ~getattr:(do_getattr t) ~setattr:(do_setattr t)
    ~fs_open:(do_open t) ~fs_close:(do_close t) ~read_block:(do_read_block t)
    ~write_block:(do_write_block t);
  t

let fs t = Core.fs t.core
let cache t = Core.cache t.core

let start_syncer t ~interval =
  Blockcache.Cache.start_syncer (cache t) ~interval ()
