module Core = Nfs.Client_core
module Wire = Nfs.Wire

type config = {
  cache_blocks : int;
  retry_budget : float option;
}

let default_config =
  { cache_blocks = 4096; retry_budget = None }

(* per file: the block indices this client owns, bound to [true];
   [false] is the empty sentinel, so a lookup is the membership test *)
type owned = bool Sim.Inttbl.t
type gnode = owned Core.gnode

type t = { core : owned Core.t }

(* our owned dirty blocks may extend past the server's size *)
let keep_size (g : gnode) (attrs : Localfs.attrs) =
  g.g_attrs <-
    { attrs with Localfs.size = max attrs.Localfs.size g.g_attrs.Localfs.size }

let policy =
  {
    Core.prog = Kent_server.prog;
    cat = "kent";
    fresh = (fun _ _ -> Sim.Inttbl.create ~empty:false);
    merge = (fun _ _ _ g attrs -> keep_size g attrs);
    on_remove = ignore;
  }

(* first write to a block: get ownership (and invalidate other copies) *)
let acquire t ctx (g : gnode) ~index ~len =
  if not (Sim.Inttbl.find g.g_proto index) then begin
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", Core.host t.core) ]
        "kent_acquires_total";
    Core.proto_event t.core "acquire"
      [ ("ino", Obs.Trace.Int g.g_ino); ("index", Obs.Trace.Int index) ];
    Wire.invoke (Core.call t.core ctx) Kent_server.acquire
      ((Core.fh_of t.core g, index), len);
    Sim.Inttbl.replace g.g_proto index true
  end

(* attributes are always fetched: the server's size is authoritative
   (it advances at acquire time) *)
let fetch_attrs t ctx g =
  keep_size g (Wire.getattr (Core.call t.core ctx) (Core.fh_of t.core g))

let do_open t vn _mode =
  Core.op t.core "open" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  g.g_last_read <- -1;
  fetch_attrs t ctx g

let do_close _t _vn _mode = () (* the protocol has no closes *)

let do_read_block t vn ~index =
  Core.op t.core "read" @@ fun ctx ->
  Core.cached_read t.core ctx (Core.gnode t.core vn) ~index

let do_write_block t vn ~index ~stamp ~len =
  Core.op t.core "write" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  acquire t ctx g ~index ~len;
  Core.cached_write t.core ctx g ~index ~stamp ~len `Delayed

let do_getattr t vn =
  Core.op t.core "getattr" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  fetch_attrs t ctx g;
  g.g_attrs

let do_setattr t vn ~size =
  Core.op t.core "setattr" @@ fun ctx ->
  let g = Core.gnode t.core vn in
  Core.drop t.core g;
  Sim.Inttbl.clear g.g_proto;
  g.g_attrs <- Wire.setattr (Core.call t.core ctx) (Core.fh_of t.core g) ~size

(* block-level callback from the server *)
let on_callback t (((fh : Wire.fh), index), (writeback, invalidate, id)) =
  ( id,
    fun cctx ->
      let ino = fh.ino in
      let cache = Core.cache t.core in
      if Obs.Metrics.on () then
        Obs.Metrics.incr
          ~labels:[ ("host", Core.host t.core) ]
          "kent_callbacks_served_total";
      Core.proto_event t.core "callback"
        (Obs.Causal.arg cctx
           [
             ("ino", Obs.Trace.Int ino);
             ("index", Obs.Trace.Int index);
             ("writeback", Obs.Trace.Bool writeback);
             ("invalidate", Obs.Trace.Bool invalidate);
           ]);
      match Core.find_opt t.core ino with
      | None -> ()
      | Some g ->
          (* give up ownership FIRST: a write racing with this recall
             must go back through acquire rather than slip into the
             flushed block unnoticed — and keep flushing until the
             block is clean, in case one sneaked in anyway *)
          ignore (Sim.Inttbl.remove g.g_proto index);
          if writeback then
            while
              Blockcache.Cache.block_dirty cache ~file:ino ~index
              && not (Sim.Inttbl.find g.g_proto index)
            do
              Blockcache.Cache.flush_block ~ctx:cctx cache ~file:ino ~index
            done;
          if invalidate then
            Blockcache.Cache.drop_block cache ~file:ino ~index )

let mount rpc ~client ~server ~root ?(config = default_config) ?(name = "kent")
    () =
  let core =
    Core.create policy rpc ~client ~server ~root ~name
      ~cache_blocks:config.cache_blocks
      ~retry_budget:config.retry_budget
  in
  let t = { core } in
  Core.serve_callbacks core ~ping:false Kent_server.callback (on_callback t);
  Core.attach core ~getattr:(do_getattr t) ~setattr:(do_setattr t)
    ~fs_open:(do_open t) ~fs_close:(do_close t) ~read_block:(do_read_block t)
    ~write_block:(do_write_block t);
  t

let fs t = Core.fs t.core
let cache t = Core.cache t.core
