type 'p gnode = {
  g_ino : int;
  g_gen : int;
  mutable g_attrs : Localfs.attrs;
  mutable g_last_read : int;
  g_proto : 'p;
}

type arrival = Lookup | Reply | Write

type 'p t = {
  rpc : Netsim.Rpc.t;
  client : Netsim.Net.Host.t;
  server : Netsim.Net.Host.t;
  root : Wire.fh;
  name : string;
  policy : 'p policy;
  engine : Sim.Engine.t;
  cache : Blockcache.Cache.t;
  gnodes : 'p gnode Sim.Inttbl.t; (* by inode number *)
  budget : float option; (* seconds an RPC rides out a server outage *)
  readahead_name : string;
  mutable fs : Vfs.Fs.t option;
}

and 'p policy = {
  prog : string;
  cat : string;
  fresh : Sim.Engine.t -> Localfs.attrs -> 'p;
  merge : 'p t -> Obs.Causal.t -> arrival -> 'p gnode -> Localfs.attrs -> unit;
  on_remove : 'p gnode -> unit;
}

let block_size = 4096

let call t ctx ~proc ?bulk args =
  Netsim.Rpc.call t.rpc ~ctx ~src:t.client ~dst:t.server ~prog:t.policy.prog
    ~proc ?budget:t.budget ?bulk args

let engine t = t.engine
let cache t = t.cache
let host t = Netsim.Net.Host.name t.client

let op t name f =
  Obs.Causal.root ~now:(fun () -> Sim.Engine.now t.engine) ~track:(host t) ~name f

let proto_event t name args =
  if Obs.Trace.on () then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now t.engine)
      ~cat:t.policy.cat ~name ~track:(host t) ~args ()

(* snfs-hot *)
let find t ino =
  let g = Sim.Inttbl.find t.gnodes ino in
  if g == Sim.Inttbl.empty t.gnodes then
    invalid_arg "Client_core: unknown gnode";
  g

let find_opt t ino =
  let g = Sim.Inttbl.find t.gnodes ino in
  if g == Sim.Inttbl.empty t.gnodes then None else Some g

(* snfs-fanout: bounded — this client's gnodes, once per server reboot *)
let fold f t acc = Sim.Inttbl.fold (fun _ g acc -> f g acc) t.gnodes acc

let gnode t vn = find t vn.Vfs.Fs.vid

let fh_of t g = { Wire.fsid = t.root.Wire.fsid; ino = g.g_ino; gen = g.g_gen }

let new_gnode engine policy (attrs : Localfs.attrs) =
  {
    g_ino = attrs.ino;
    g_gen = attrs.gen;
    g_attrs = attrs;
    g_last_read = -2;
    g_proto = policy.fresh engine attrs;
  }

(* Install or update a gnode from attributes that just arrived. *)
(* snfs-hot *)
let note t ctx arrival (attrs : Localfs.attrs) =
  let g = Sim.Inttbl.find t.gnodes attrs.ino in
  if g == Sim.Inttbl.empty t.gnodes then begin
    let g = new_gnode t.engine t.policy attrs in
    Sim.Inttbl.replace t.gnodes attrs.ino g;
    g
  end
  else begin
    t.policy.merge t ctx arrival g attrs;
    g
  end

let vn_of t g =
  match t.fs with
  | Some fs -> { Vfs.Fs.fs; vid = g.g_ino }
  | None -> assert false

let fs t = match t.fs with Some fs -> fs | None -> assert false

let flush ?(ctx = Obs.Causal.none) t g =
  Blockcache.Cache.flush_file ~ctx t.cache ~file:g.g_ino;
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino

let drop t g =
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
  ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino)

(* ---- data path ---- *)

let cached_read t ctx g ~index =
  if index * block_size >= g.g_attrs.Localfs.size then (0, 0)
  else begin
    let result = Blockcache.Cache.read ~ctx t.cache ~file:g.g_ino ~index in
    (* one-block read-ahead on sequential access *)
    if
      index = g.g_last_read + 1
      && (index + 1) * block_size < g.g_attrs.Localfs.size
      && Option.is_none
           (Blockcache.Cache.peek t.cache ~file:g.g_ino ~index:(index + 1))
    then
      Sim.Engine.spawn t.engine ~name:t.readahead_name (fun () ->
          ignore (Blockcache.Cache.read t.cache ~file:g.g_ino ~index:(index + 1)));
    g.g_last_read <- index;
    result
  end

let cached_write t ctx g ~index ~stamp ~len mode =
  Blockcache.Cache.write ~ctx t.cache ~file:g.g_ino ~index ~stamp ~len
    (mode :> [ `Sync | `Async | `Delayed ]);
  (* optimistic local size; the authoritative one returns on the write
     reply *)
  let size = Int.max g.g_attrs.Localfs.size ((index * block_size) + len) in
  g.g_attrs <- { g.g_attrs with Localfs.size }

(* ---- namespace ---- *)

let do_root t () =
  let g = Sim.Inttbl.find t.gnodes t.root.Wire.ino in
  if g != Sim.Inttbl.empty t.gnodes then vn_of t g
  else
    op t "root" @@ fun ctx ->
    vn_of t (note t ctx Reply (Wire.getattr (call t ctx) t.root))

let do_lookup t ~dir name =
  op t "lookup" @@ fun ctx ->
  let _fh, attrs = Wire.lookup (call t ctx) ~dir:(fh_of t (gnode t dir)) name in
  vn_of t (note t ctx Lookup attrs)

let do_create t ~dir name =
  op t "create" @@ fun ctx ->
  let _fh, attrs = Wire.create (call t ctx) ~dir:(fh_of t (gnode t dir)) name in
  vn_of t (note t ctx Reply attrs)

let do_mkdir t ~dir name =
  op t "mkdir" @@ fun ctx ->
  let _fh, attrs = Wire.mkdir (call t ctx) ~dir:(fh_of t (gnode t dir)) name in
  vn_of t (note t ctx Reply attrs)

let do_remove t ~dir name =
  op t "remove" @@ fun ctx ->
  let dir = fh_of t (gnode t dir) in
  (match Wire.lookup (call t ctx) ~dir name with
  | fh, _ -> (
      match find_opt t fh.Wire.ino with
      | Some g ->
          (* the delete-before-write-back optimization (Section 5.4):
             dirty blocks of the dead file are simply dropped *)
          t.policy.on_remove g;
          drop t g;
          ignore (Sim.Inttbl.remove t.gnodes g.g_ino)
      | None -> ())
  | exception Localfs.Error _ -> ());
  Wire.remove (call t ctx) ~dir name

let do_rmdir t ~dir name =
  op t "rmdir" @@ fun ctx ->
  Wire.rmdir (call t ctx) ~dir:(fh_of t (gnode t dir)) name

let do_rename t ~fromdir fname ~todir tname =
  op t "rename" @@ fun ctx ->
  let fromdir = fh_of t (gnode t fromdir) in
  let todir = fh_of t (gnode t todir) in
  Wire.rename (call t ctx) ~fromdir fname ~todir tname

let do_readdir t vn =
  op t "readdir" @@ fun ctx -> Wire.readdir (call t ctx) (fh_of t (gnode t vn))

let do_fsync t vn = op t "fsync" @@ fun ctx -> flush ~ctx t (gnode t vn)

(* ---- callback service (Section 4.2.2) ---- *)

let serve_callbacks t ~ping p callback =
  let on_callback =
    Wire.serves p (fun ~caller:_ ~ctx:_ args ->
        let id, act = callback args in
        (* the inducing operation rode the wire: close the causal chain
           with the effect end of the flow arrow on this client's
           track *)
        let cctx = Obs.Causal.of_id id in
        if Obs.Trace.on () && Obs.Causal.live cctx then
          Obs.Trace.flow_end
            ~ts:(Sim.Engine.now t.engine)
            ~track:(host t) ~id:(Obs.Causal.id cctx) ();
        act cctx)
  in
  (* liveness probe from the server's laundromat *)
  let on_ping =
    Wire.serves Wire.Proc.ping (fun ~caller:_ ~ctx:_ () ->
        Netsim.Net.Host.boot_epoch t.client)
  in
  ignore
    (Netsim.Rpc.serve t.rpc t.client
       ~prog:(Wire.callback_prog ~prog:t.policy.prog ~fsid:t.root.Wire.fsid)
       ~threads:2 ~unknown:Wire.unknown
       (if ping then [ on_callback; on_ping ] else [ on_callback ]))

(* ---- construction ---- *)

let create policy rpc ~client ~server ~root ~name ~cache_blocks ~retry_budget =
  (match retry_budget with
  | Some b when b <= 0.0 ->
      invalid_arg "Client_core.create: retry_budget must be positive"
  | Some _ | None -> ());
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let rec t =
    lazy
      (let backend =
         {
           Blockcache.Cache.read_block =
             (fun ~ctx ~file ~index ->
               let t = Lazy.force t in
               Wire.read (call t ctx) (fh_of t (find t file)) ~index);
           write_block =
             (fun ~ctx ~file ~index ~stamp ~len ->
               let t = Lazy.force t in
               let g = find t file in
               match Wire.write (call t ctx) (fh_of t g) ~index ~stamp ~len with
               | attrs -> t.policy.merge t ctx Write g attrs
               | exception Localfs.Error Localfs.Stale ->
                   (* removed while the write was in flight: its data
                      no longer matters *)
                   ());
         }
       in
       {
         rpc;
         client;
         server;
         root;
         name;
         policy;
         engine;
         cache =
           Blockcache.Cache.create engine ~name:(name ^ ".cache")
             ~capacity_blocks:cache_blocks ~block_size backend;
         (* the sentinel is a gnode no inode number names *)
         gnodes =
           Sim.Inttbl.create
             ~empty:
               (new_gnode engine policy
                  {
                    Localfs.ino = -1;
                    gen = 0;
                    ftype = Localfs.File;
                    size = 0;
                    nlink = 0;
                    mtime = 0.0;
                    ctime = 0.0;
                  });
         budget = retry_budget;
         readahead_name = policy.cat ^ ".readahead";
         fs = None;
       })
  in
  Lazy.force t

let attach t ~getattr ~setattr ~fs_open ~fs_close ~read_block ~write_block =
  t.fs <-
    Some
      {
        Vfs.Fs.fs_name = t.name;
        block_size;
        root = do_root t;
        lookup = do_lookup t;
        create = do_create t;
        mkdir = do_mkdir t;
        remove = do_remove t;
        rmdir = do_rmdir t;
        rename = do_rename t;
        readdir = do_readdir t;
        getattr;
        setattr;
        fs_open;
        fs_close;
        read_block;
        write_block;
        fsync = do_fsync t;
      }
