type config = {
  cache_blocks : int;
  read_ahead : bool;
  retry_budget : float option;
}

let default_config =
  { cache_blocks = 4096; read_ahead = true; retry_budget = None }

type gnode = {
  g_ino : int;
  g_gen : int;
  mutable g_attrs : Localfs.attrs;
  owned : (int, unit) Hashtbl.t; (* block indices this client owns *)
  mutable g_last_read : int;
}

type t = {
  rpc : Netsim.Rpc.t;
  client : Netsim.Net.Host.t;
  server : Netsim.Net.Host.t;
  root : Nfs.Wire.fh;
  config : config;
  engine : Sim.Engine.t;
  cache : Blockcache.Cache.t;
  gnodes : (int, gnode) Hashtbl.t;
  budget : Netsim.Rpc.budget option;
  mutable fs : Vfs.Fs.t option;
  mutable acquires : int;
  mutable callbacks_served : int;
}

let block_size = 4096

(* Partially applied as [call t ctx]: every RPC of one client
   operation is stamped with its causal context. *)
let call t ctx ~proc ?bulk args =
  Netsim.Rpc.call t.rpc ~ctx ~src:t.client ~dst:t.server
    ~prog:Kent_server.prog ~proc ?budget:t.budget ?bulk args

(* Run one GFS operation under a fresh causal root ({!Obs.Causal.root}). *)
let op t name f =
  Obs.Causal.root
    ~now:(fun () -> Sim.Engine.now t.engine)
    ~track:(Netsim.Net.Host.name t.client)
    ~name f

let gnode t ino =
  match Hashtbl.find_opt t.gnodes ino with
  | Some g -> g
  | None -> invalid_arg "Kent_client: unknown gnode"

let proto_event t name args =
  if Obs.Trace.on () then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"kent" ~name
      ~track:(Netsim.Net.Host.name t.client)
      ~args ()

let fh_of t (g : gnode) =
  { Nfs.Wire.fsid = t.root.Nfs.Wire.fsid; ino = g.g_ino; gen = g.g_gen }

let note_attrs t (attrs : Localfs.attrs) =
  match Hashtbl.find_opt t.gnodes attrs.ino with
  | Some g ->
      (* our owned dirty blocks may extend past the server's size *)
      g.g_attrs <-
        { attrs with Localfs.size = max attrs.Localfs.size g.g_attrs.Localfs.size };
      g
  | None ->
      let g =
        {
          g_ino = attrs.ino;
          g_gen = attrs.gen;
          g_attrs = attrs;
          owned = Hashtbl.create 8;
          g_last_read = -1;
        }
      in
      Hashtbl.replace t.gnodes attrs.ino g;
      g

let vn_of t (g : gnode) =
  match t.fs with
  | Some fs -> { Vfs.Fs.fs; vid = g.g_ino }
  | None -> assert false

(* first write to a block: get ownership (and invalidate other copies) *)
let acquire t ctx g ~index ~len =
  if not (Hashtbl.mem g.owned index) then begin
    t.acquires <- t.acquires + 1;
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", Netsim.Net.Host.name t.client) ]
        "kent_acquires_total";
    proto_event t "acquire"
      [ ("ino", Obs.Trace.Int g.g_ino); ("index", Obs.Trace.Int index) ];
    let e = Xdr.Enc.create () in
    Nfs.Wire.enc_fh e (fh_of t g);
    Xdr.Enc.uint32 e index;
    Xdr.Enc.uint32 e len;
    let d =
      Xdr.Dec.of_bytes
        (call t ctx ~proc:Kent_server.p_acquire (Xdr.Enc.to_bytes e))
    in
    (match Nfs.Wire.dec_status d with
    | Ok () -> ()
    | Error err -> raise (Localfs.Error err));
    Hashtbl.replace g.owned index ()
  end

let do_open t vn _mode =
  op t "open" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  g.g_last_read <- -1;
  (* attributes are always fetched: the server's size is authoritative
     (it advances at acquire time) *)
  let attrs = Nfs.Wire.getattr (call t ctx) (fh_of t g) in
  ignore (note_attrs t attrs)

let do_close _t _vn _mode = () (* the protocol has no closes *)

let do_read_block t vn ~index =
  op t "read" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  if index * block_size >= g.g_attrs.Localfs.size then (0, 0)
  else begin
    let result = Blockcache.Cache.read ~ctx t.cache ~file:g.g_ino ~index in
    if
      t.config.read_ahead
      && index = g.g_last_read + 1
      && (index + 1) * block_size < g.g_attrs.Localfs.size
      && Blockcache.Cache.peek t.cache ~file:g.g_ino ~index:(index + 1) = None
    then
      Sim.Engine.spawn t.engine ~name:"kent.readahead" (fun () ->
          ignore (Blockcache.Cache.read t.cache ~file:g.g_ino ~index:(index + 1)));
    g.g_last_read <- index;
    result
  end

let do_write_block t vn ~index ~stamp ~len =
  op t "write" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  acquire t ctx g ~index ~len;
  Blockcache.Cache.write ~ctx t.cache ~file:g.g_ino ~index ~stamp ~len `Delayed;
  let size = max g.g_attrs.Localfs.size ((index * block_size) + len) in
  g.g_attrs <- { g.g_attrs with Localfs.size }

(* ---- namespace (shared wire procedures) ---- *)

let do_lookup t ~dir name =
  op t "lookup" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Nfs.Wire.lookup (call t ctx) ~dir:(fh_of t dirg) name in
  vn_of t (note_attrs t attrs)

let do_root t () =
  match Hashtbl.find_opt t.gnodes t.root.Nfs.Wire.ino with
  | Some g -> vn_of t g
  | None ->
      op t "root" @@ fun ctx ->
      let attrs = Nfs.Wire.getattr (call t ctx) t.root in
      vn_of t (note_attrs t attrs)

let do_create t ~dir name =
  op t "create" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Nfs.Wire.create (call t ctx) ~dir:(fh_of t dirg) name in
  vn_of t (note_attrs t attrs)

let do_mkdir t ~dir name =
  op t "mkdir" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Nfs.Wire.mkdir (call t ctx) ~dir:(fh_of t dirg) name in
  vn_of t (note_attrs t attrs)

let do_remove t ~dir name =
  op t "remove" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  (match Nfs.Wire.lookup (call t ctx) ~dir:(fh_of t dirg) name with
  | fh, _ -> (
      match Hashtbl.find_opt t.gnodes fh.Nfs.Wire.ino with
      | Some g ->
          (* delete cancels delayed writes, as in SNFS *)
          Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
          ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino);
          Hashtbl.remove t.gnodes g.g_ino
      | None -> ())
  | exception Localfs.Error _ -> ());
  Nfs.Wire.remove (call t ctx) ~dir:(fh_of t dirg) name

let do_rmdir t ~dir name =
  op t "rmdir" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  Nfs.Wire.rmdir (call t ctx) ~dir:(fh_of t dirg) name

let do_rename t ~fromdir fname ~todir tname =
  op t "rename" @@ fun ctx ->
  let fg = gnode t fromdir.Vfs.Fs.vid in
  let tg = gnode t todir.Vfs.Fs.vid in
  Nfs.Wire.rename (call t ctx) ~fromdir:(fh_of t fg) fname ~todir:(fh_of t tg)
    tname

let do_readdir t vn =
  op t "readdir" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  Nfs.Wire.readdir (call t ctx) (fh_of t g)

let do_getattr t vn =
  op t "getattr" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  let attrs = Nfs.Wire.getattr (call t ctx) (fh_of t g) in
  (note_attrs t attrs).g_attrs

let do_setattr t vn ~size =
  op t "setattr" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
  ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino);
  Hashtbl.reset g.owned;
  let attrs = Nfs.Wire.setattr (call t ctx) (fh_of t g) ~size in
  g.g_attrs <- attrs

let do_fsync t vn =
  op t "fsync" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  Blockcache.Cache.flush_file ~ctx t.cache ~file:g.g_ino;
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino

(* block-level callback from the server *)
let handle_callback t dec =
  let fh = Nfs.Wire.dec_fh dec in
  let index = Xdr.Dec.uint32 dec in
  let writeback = Xdr.Dec.bool dec in
  let invalidate = Xdr.Dec.bool dec in
  (* the inducing operation rode the wire: close the causal chain with
     the effect end of the flow arrow on this client's track *)
  let cctx = Obs.Causal.of_id (Xdr.Dec.ctx dec) in
  let ino = fh.Nfs.Wire.ino in
  t.callbacks_served <- t.callbacks_served + 1;
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:[ ("host", Netsim.Net.Host.name t.client) ]
      "kent_callbacks_served_total";
  if Obs.Trace.on () && Obs.Causal.live cctx then
    Obs.Trace.flow_end
      ~ts:(Sim.Engine.now t.engine)
      ~track:(Netsim.Net.Host.name t.client)
      ~id:(Obs.Causal.id cctx) ();
  proto_event t "callback"
    (Obs.Causal.arg cctx
       [
         ("ino", Obs.Trace.Int ino);
         ("index", Obs.Trace.Int index);
         ("writeback", Obs.Trace.Bool writeback);
         ("invalidate", Obs.Trace.Bool invalidate);
       ]);
  (match Hashtbl.find_opt t.gnodes ino with
  | None -> ()
  | Some g ->
      (* give up ownership FIRST: a write racing with this recall must
         go back through acquire rather than slip into the flushed
         block unnoticed — and keep flushing until the block is clean,
         in case one sneaked in anyway *)
      Hashtbl.remove g.owned index;
      if writeback then
        while
          Blockcache.Cache.block_dirty t.cache ~file:ino ~index
          && not (Hashtbl.mem g.owned index)
        do
          Blockcache.Cache.flush_block ~ctx:cctx t.cache ~file:ino ~index
        done;
      if invalidate then Blockcache.Cache.drop_block t.cache ~file:ino ~index);
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_status e (Ok ());
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let mount rpc ~client ~server ~root ?(config = default_config) ?(name = "kent")
    () =
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let rec t =
    lazy
      (let backend =
         {
           Blockcache.Cache.read_block =
             (fun ~ctx ~file ~index ->
               let tt = Lazy.force t in
               let g = gnode tt file in
               Nfs.Wire.read (call tt ctx) (fh_of tt g) ~index);
           write_block =
             (fun ~ctx ~file ~index ~stamp ~len ->
               let tt = Lazy.force t in
               let g = gnode tt file in
               match
                 Nfs.Wire.write (call tt ctx) (fh_of tt g) ~index ~stamp ~len
               with
               | attrs -> ignore (note_attrs tt attrs)
               | exception Localfs.Error Localfs.Stale -> ());
         }
       in
       {
         rpc;
         client;
         server;
         root;
         config;
         engine;
         cache =
           Blockcache.Cache.create engine ~name:(name ^ ".cache")
             ~capacity_blocks:config.cache_blocks ~block_size backend;
         gnodes = Hashtbl.create 256;
         budget = Option.map Netsim.Rpc.budget config.retry_budget;
         fs = None;
         acquires = 0;
         callbacks_served = 0;
       })
  in
  let t = Lazy.force t in
  let _svc =
    Netsim.Rpc.serve rpc client
      ~prog:(Kent_server.client_prog_for root.Nfs.Wire.fsid)
      ~threads:2
      (fun ~caller:_ ~ctx:_ ~proc dec ->
        if proc = Nfs.Wire.p_callback then handle_callback t dec
        else
          let e = Xdr.Enc.create () in
          Nfs.Wire.enc_status e (Error Localfs.Stale);
          { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 })
  in
  let fs =
    {
      Vfs.Fs.fs_name = name;
      block_size;
      root = (fun () -> do_root t ());
      lookup = (fun ~dir name -> do_lookup t ~dir name);
      create = (fun ~dir name -> do_create t ~dir name);
      mkdir = (fun ~dir name -> do_mkdir t ~dir name);
      remove = (fun ~dir name -> do_remove t ~dir name);
      rmdir = (fun ~dir name -> do_rmdir t ~dir name);
      rename = (fun ~fromdir f ~todir tn -> do_rename t ~fromdir f ~todir tn);
      readdir = (fun vn -> do_readdir t vn);
      getattr = (fun vn -> do_getattr t vn);
      setattr = (fun vn ~size -> do_setattr t vn ~size);
      fs_open = (fun vn mode -> do_open t vn mode);
      fs_close = (fun vn mode -> do_close t vn mode);
      read_block = (fun vn ~index -> do_read_block t vn ~index);
      write_block =
        (fun vn ~index ~stamp ~len -> do_write_block t vn ~index ~stamp ~len);
      fsync = (fun vn -> do_fsync t vn);
    }
  in
  t.fs <- Some fs;
  t

let fs t = match t.fs with Some fs -> fs | None -> assert false
let cache t = t.cache
let acquires t = t.acquires
let block_callbacks_served t = t.callbacks_served

(* oracle hook: push every owned dirty block back to the server *)
let quiesce t = Blockcache.Cache.flush_all t.cache
