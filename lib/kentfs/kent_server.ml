module Wire = Nfs.Wire

let prog = "kent"

(* ((file, block index), length): the writer's claim on one block *)
let acquire =
  Wire.proc "acquire"
    (Xdr.pair (Xdr.pair Wire.fh_codec Xdr.uint32) Xdr.uint32)
    Xdr.unit

(* ((file, block index), (write back, invalidate, inducing operation)) *)
let callback =
  Wire.proc "callback"
    (Xdr.pair
       (Xdr.pair Wire.fh_codec Xdr.uint32)
       (Xdr.triple Xdr.bool Xdr.bool Xdr.ctx))
    Xdr.unit

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
  core : Wire.server_core;
  srv : Wire.server;
  engine : Sim.Engine.t;
  blocks : (int * int, bstate) Hashtbl.t; (* (ino, index) *)
}

let bstate t key =
  match Hashtbl.find_opt t.blocks key with
  | Some b -> b
  | None ->
      let b =
        { owner = None; copyset = []; lock = Sim.Semaphore.create t.engine 1 }
      in
      Hashtbl.replace t.blocks key b;
      b

(* one block-level callback to one client; [invalidate] false means
   "write the block back but you may keep a clean copy" *)
let block_callback t ~ctx ~ino ~index ~target ~writeback ~invalidate =
  let target = Wire.client t.srv target in
  let gen =
    try (Localfs.getattr ~ctx (Wire.core_fs t.core) ino).Localfs.gen
    with Localfs.Error _ -> 1
  in
  if invalidate && Obs.Metrics.on () then
    Obs.Metrics.incr "kent_invalidations_sent_total";
  if writeback && Obs.Metrics.on () then
    Obs.Metrics.incr "kent_recalls_sent_total";
  (* hold a callback token while waiting on the client, so at least one
     server thread stays free for the write-back it may provoke; a
     dead client's copy is gone with it *)
  Sim.Semaphore.with_unit (Wire.callback_tokens t.srv) @@ fun () ->
  Wire.callback t.srv ~impatient:true ~ctx ~target
    ~instant:(fun () ->
      Wire.event t.srv ~cat:"kent"
        ~name:(if writeback then "recall" else "invalidate_send")
        (Obs.Causal.arg ctx
           [
             ("ino", Obs.Trace.Int ino);
             ("index", Obs.Trace.Int index);
             ("to", Obs.Trace.Str (Netsim.Net.Host.name target));
             ("invalidate", Obs.Trace.Bool invalidate);
           ]))
    callback
    (* the inducing operation rides in the callback payload *)
    ( ({ Wire.fsid = Wire.core_fsid t.core; ino; gen }, index),
      (writeback, invalidate, Obs.Causal.id ctx) )

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
let handle_acquire t ~caller ~ctx (((fh : Wire.fh), index), len) =
  let ino = fh.ino in
  ignore (Localfs.getattr ~ctx (Wire.core_fs t.core) ino);
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
      let size = (index * Localfs.block_size) + len in
      let current =
        (Localfs.getattr ~ctx (Wire.core_fs t.core) ino).Localfs.size
      in
      if size > current then
        Localfs.setattr ~ctx (Wire.core_fs t.core) ino ~size ())

(* reads need per-block recall + copyset tracking under the block's
   lock, so the shared read handler is bypassed *)
let handle_read t ~caller ~ctx ((fh : Wire.fh), index) =
  let ino = fh.ino in
  ignore (Localfs.getattr ~ctx (Wire.core_fs t.core) ino);
  let b = bstate t (ino, index) in
  Sim.Semaphore.with_unit b.lock (fun () ->
      recall_for_read t ~ctx ~ino ~index;
      let result = Localfs.read_block ~ctx (Wire.core_fs t.core) ino ~index in
      if not (List.mem caller b.copyset) then b.copyset <- caller :: b.copyset;
      result)

(* truncation makes outstanding block states moot: owners and copy
   holders must drop their blocks or stale data could later resurface
   via a delayed write-back. The truncation itself is then the basic
   setattr. *)
let truncate_blocks t ~caller ~ctx ((fh : Wire.fh), _size) =
  let ino = fh.ino in
  ignore (Localfs.getattr ~ctx (Wire.core_fs t.core) ino);
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
    affected

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
let threads = 8

let serve rpc host ~fsid fs =
  let rec t =
    lazy
      (let core =
         Wire.make_server_core ~fsid fs
           ~on_remove:(fun ~ino ~ctx:_ -> forget_file (Lazy.force t) ino)
           ()
       in
       let srv =
         Wire.serve rpc host ~prog ~threads core
           (Wire.serves acquire (fun ~caller ~ctx args ->
                handle_acquire (Lazy.force t) ~caller ~ctx args)
           :: Wire.serves Wire.Proc.read (fun ~caller ~ctx args ->
                  handle_read (Lazy.force t) ~caller ~ctx args)
           :: Wire.before Wire.Proc.setattr
                (fun ~caller ~ctx args ->
                  truncate_blocks (Lazy.force t) ~caller ~ctx args)
                (Wire.basic core))
       in
       let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
       { core; srv; engine; blocks = Hashtbl.create 256 })
  in
  Lazy.force t

let root_fh t = Wire.root_fh t.core
let service t = Wire.service t.srv
