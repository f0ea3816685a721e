let prog = "kent"

let client_prog_for fsid = "kent_cb." ^ string_of_int fsid

let p_acquire = "acquire"

(* per-block consistency state; [lock] serializes directory actions on
   the block (acquire / recall / truncate) — without it, a reader
   joining the copy set while an acquire's invalidation callbacks are
   in flight would be wiped from the set and keep a stale copy
   forever *)
type bstate = {
  mutable owner : int option;
  mutable copyset : int list;
  lock : Sim.Semaphore.t;
}

type t = {
  rpc : Netsim.Rpc.t;
  host : Netsim.Net.Host.t;
  core : Nfs.Wire.server_core;
  blocks : (int * int, bstate) Hashtbl.t; (* (ino, index) *)
  service : Netsim.Rpc.service;
  (* at most threads-1 handlers may be issuing callbacks (Section 3.2) *)
  callback_tokens : Sim.Semaphore.t;
  mutable recalls : int;
  mutable invalidations : int;
}

let bstate t key =
  match Hashtbl.find_opt t.blocks key with
  | Some b -> b
  | None ->
      let engine = Netsim.Net.engine (Netsim.Rpc.net t.rpc) in
      let b =
        { owner = None; copyset = []; lock = Sim.Semaphore.create engine 1 }
      in
      Hashtbl.replace t.blocks key b;
      b

(* one block-level callback to one client; [invalidate] false means
   "write the block back but you may keep a clean copy" *)
let block_callback t ~ctx ~ino ~index ~target ~writeback ~invalidate =
  let host = Netsim.Net.Host.by_addr (Netsim.Rpc.net t.rpc) target in
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_fh e
    {
      Nfs.Wire.fsid = Nfs.Wire.core_fsid t.core;
      ino;
      gen =
        (try (Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) ino).Localfs.gen
         with Localfs.Error _ -> 1);
    };
  Xdr.Enc.uint32 e index;
  Xdr.Enc.bool e writeback;
  Xdr.Enc.bool e invalidate;
  (* the inducing operation rides in the callback payload *)
  Xdr.Enc.ctx e (Obs.Causal.id ctx);
  if invalidate then begin
    t.invalidations <- t.invalidations + 1;
    if Obs.Metrics.on () then
      Obs.Metrics.incr "kent_invalidations_sent_total"
  end;
  if writeback then begin
    t.recalls <- t.recalls + 1;
    if Obs.Metrics.on () then Obs.Metrics.incr "kent_recalls_sent_total"
  end;
  if Obs.Trace.on () && Obs.Causal.keep ctx then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now (Netsim.Net.engine (Netsim.Rpc.net t.rpc)))
      ~cat:"kent"
      ~name:(if writeback then "recall" else "invalidate_send")
      ~track:(Netsim.Net.Host.name t.host)
      ~args:
        (Obs.Causal.arg ctx
           [
             ("ino", Obs.Trace.Int ino);
             ("index", Obs.Trace.Int index);
             ("to", Obs.Trace.Str (Netsim.Net.Host.name host));
             ("invalidate", Obs.Trace.Bool invalidate);
           ])
      ();
  if Obs.Causal.live ctx then
    Obs.Trace.flow_start
      ~ts:(Sim.Engine.now (Netsim.Net.engine (Netsim.Rpc.net t.rpc)))
      ~track:(Netsim.Net.Host.name t.host)
      ~id:(Obs.Causal.id ctx) ();
  (* hold a callback token while waiting on the client, so at least one
     server thread stays free for the write-back it may provoke *)
  Sim.Semaphore.with_unit t.callback_tokens @@ fun () ->
  match
    Netsim.Rpc.call t.rpc ~ctx
      ~config:(Netsim.Rpc.impatient (Netsim.Rpc.config t.rpc))
      ~src:t.host ~dst:host
      ~prog:(client_prog_for (Nfs.Wire.core_fsid t.core))
      ~proc:Nfs.Wire.p_callback (Xdr.Enc.to_bytes e)
  with
  | _reply -> true
  | exception Netsim.Rpc.Timeout _ -> false (* client dead: its copy is gone *)

(* a reader wants current data: if someone owns the block, recall it
   (the owner writes it back and downgrades to a clean copy) *)
let recall_for_read t ~ctx ~ino ~index =
  let b = bstate t (ino, index) in
  match b.owner with
  | Some o ->
      if block_callback t ~ctx ~ino ~index ~target:o ~writeback:true
           ~invalidate:false
      then b.copyset <- o :: List.filter (fun c -> c <> o) b.copyset;
      b.owner <- None
  | None -> ()

(* a writer wants ownership: recall from the present owner and
   invalidate every other cached copy *)
let handle_acquire t ~caller ~ctx d =
  let fh = Nfs.Wire.dec_fh d in
  let index = Xdr.Dec.uint32 d in
  let len = Xdr.Dec.uint32 d in
  let ino = fh.Nfs.Wire.ino in
  let e = Xdr.Enc.create () in
  (match Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) ino with
  | _attrs ->
      let b = bstate t (ino, index) in
      Sim.Semaphore.with_unit b.lock (fun () ->
          (match b.owner with
          | Some o when o <> caller ->
              ignore
                (block_callback t ~ctx ~ino ~index ~target:o ~writeback:true
                   ~invalidate:true)
          | Some _ | None -> ());
          List.iter
            (fun c ->
              if c <> caller then
                ignore
                  (block_callback t ~ctx ~ino ~index ~target:c ~writeback:false
                     ~invalidate:true))
            b.copyset;
          b.owner <- Some caller;
          b.copyset <- [];
          (* the logical size advances now, so other clients' opens see
             the new extent even while the data stays with the owner *)
          let size =
            (index * Localfs.block_size (Nfs.Wire.core_fs t.core)) + len
          in
          let current =
            (Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) ino).Localfs.size
          in
          if size > current then
            Localfs.setattr ~ctx (Nfs.Wire.core_fs t.core) ino ~size ());
      Nfs.Wire.enc_status e (Ok ())
  | exception Localfs.Error err -> Nfs.Wire.enc_status e (Error err));
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

(* reads need per-block recall + copyset tracking, so the shared read
   handler is bypassed *)
let handle_read t ~caller ~ctx d =
  let fh = Nfs.Wire.dec_fh d in
  let index = Xdr.Dec.uint32 d in
  let ino = fh.Nfs.Wire.ino in
  let e = Xdr.Enc.create () in
  match Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) ino with
  | exception Localfs.Error err ->
      Nfs.Wire.enc_status e (Error err);
      { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }
  | _attrs ->
      let b = bstate t (ino, index) in
      let stamp, len =
        Sim.Semaphore.with_unit b.lock (fun () ->
            recall_for_read t ~ctx ~ino ~index;
            let result =
              Localfs.read_block ~ctx (Nfs.Wire.core_fs t.core) ino ~index
            in
            if not (List.mem caller b.copyset) then
              b.copyset <- caller :: b.copyset;
            result)
      in
      Nfs.Wire.enc_status e (Ok ());
      Xdr.Enc.uint32 e stamp;
      Xdr.Enc.uint32 e len;
      { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = len }

(* truncation makes outstanding block states moot: owners and copy
   holders must drop their blocks or stale data could later resurface
   via a delayed write-back *)
let handle_setattr t ~caller ~ctx d =
  let fh = Nfs.Wire.dec_fh d in
  let size = Xdr.Dec.uint32 d in
  let ino = fh.Nfs.Wire.ino in
  let e = Xdr.Enc.create () in
  (match Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) ino with
  | _attrs ->
      (* sorted: the invalidation callbacks below must not go out in
         hash-bucket order (snfs_lint's hashtbl-order rule) *)
      let affected =
        Hashtbl.fold
          (fun (i, index) b acc -> if i = ino then (index, b) :: acc else acc)
          t.blocks []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (index, b) ->
          Sim.Semaphore.with_unit b.lock (fun () ->
              (match b.owner with
              | Some o when o <> caller ->
                  ignore
                    (block_callback t ~ctx ~ino ~index ~target:o
                       ~writeback:false ~invalidate:true)
              | Some _ | None -> ());
              List.iter
                (fun c ->
                  if c <> caller then
                    ignore
                      (block_callback t ~ctx ~ino ~index ~target:c
                         ~writeback:false ~invalidate:true))
                b.copyset;
              b.owner <- None;
              b.copyset <- []);
          Hashtbl.remove t.blocks (ino, index))
        affected;
      (match Localfs.setattr ~ctx (Nfs.Wire.core_fs t.core) ino ~size () with
      | () ->
          let attrs = Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) ino in
          Nfs.Wire.enc_status e (Ok ());
          Nfs.Wire.enc_attrs e attrs
      | exception Localfs.Error err -> Nfs.Wire.enc_status e (Error err))
  | exception Localfs.Error err -> Nfs.Wire.enc_status e (Error err));
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let forget_file t ino =
  let doomed =
    Hashtbl.fold
      (fun ((i, _) as key) _ acc -> if i = ino then key :: acc else acc)
      t.blocks []
  in
  List.iter (Hashtbl.remove t.blocks) doomed

(* the directory holds per-block locks across callbacks, and handlers
   waiting for a lock occupy pool threads; the block protocol therefore
   needs more headroom than the file-granularity servers — a software
   echo of Kent's finding that the protocol wanted hardware support *)
let serve rpc host ?(threads = 8) ~fsid fs =
  if threads < 2 then invalid_arg "Kent_server.serve: need at least 2 threads";
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let rec t =
    lazy
      (let core =
         Nfs.Wire.make_server_core ~fsid fs
           ~on_remove:(fun ~ino ~ctx:_ -> forget_file (Lazy.force t) ino)
           ()
       in
       let handler ~caller ~ctx ~proc dec =
         let tt = Lazy.force t in
         let caller_addr = Netsim.Net.Host.addr caller in
         if proc = p_acquire then handle_acquire tt ~caller:caller_addr ~ctx dec
         else if proc = Nfs.Wire.p_read then
           handle_read tt ~caller:caller_addr ~ctx dec
         else if proc = Nfs.Wire.p_setattr then
           handle_setattr tt ~caller:caller_addr ~ctx dec
         else
           match
             Nfs.Wire.handle_basic tt.core ~caller:caller_addr ~ctx ~proc dec
           with
           | Some reply -> reply
           | None ->
               let e = Xdr.Enc.create () in
               Nfs.Wire.enc_status e (Error Localfs.Stale);
               { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }
       in
       let service = Netsim.Rpc.serve rpc host ~prog ~threads handler in
       {
         rpc;
         host;
         core;
         blocks = Hashtbl.create 256;
         service;
         callback_tokens = Sim.Semaphore.create engine (threads - 1);
         recalls = 0;
         invalidations = 0;
       })
  in
  Lazy.force t

let root_fh t = Nfs.Wire.root_fh t.core
let counters t = Netsim.Rpc.counters t.service
let service t = t.service
let recalls_sent t = t.recalls
let invalidations_sent t = t.invalidations
