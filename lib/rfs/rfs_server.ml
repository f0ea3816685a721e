module Wire = Nfs.Wire

let prog = "rfs"

(* Per-file consistency record: who may be caching, and the version
   used to revalidate caches on reopen. *)
type fentry = { mutable version : int; mutable cachers : int list }

type t = {
  srv : Wire.server;
  table : (int, fentry) Hashtbl.t;
  mutable counter : int;
}

let entry t ino =
  match Hashtbl.find_opt t.table ino with
  | Some f -> f
  | None ->
      t.counter <- t.counter + 1;
      let f = { version = t.counter; cachers = [] } in
      Hashtbl.replace t.table ino f;
      f

let add_cacher f client =
  if not (List.mem client f.cachers) then f.cachers <- client :: f.cachers

(* RFS invalidates reader caches only when a write actually occurs.
   [ctx] is the writing operation's causal context: each invalidation
   carries it on the wire (cb_ctx) and is announced with a flow event,
   so the trace draws an arrow from the write to the induced
   invalidation work on each victim. *)
let on_write t ~ino ~caller ~ctx =
  match Hashtbl.find_opt t.table ino with
  | None -> ()
  | Some f when List.for_all (fun c -> c = caller) f.cachers -> ()
  | Some f ->
      let victims = List.filter (fun c -> c <> caller) f.cachers in
      f.cachers <- List.filter (fun c -> c = caller) f.cachers;
      Sim.Semaphore.with_unit (Wire.callback_tokens t.srv) @@ fun () ->
      List.iter
        (fun victim ->
          let target = Wire.client t.srv victim in
          let gen =
            try (Localfs.getattr (Wire.fs t.srv) ino).Localfs.gen
            with Localfs.Error _ -> 1
          in
          if Obs.Metrics.on () then
            Obs.Metrics.incr "rfs_invalidations_sent_total";
          (* a dead reader's copy is gone with it *)
          ignore
            (Wire.callback t.srv ~impatient:false ~ctx ~target
               ~instant:(fun () ->
                 Wire.event t.srv ~cat:"rfs" ~name:"callback_send"
                   (Obs.Causal.arg ctx
                      [
                        ("file", Obs.Trace.Int ino);
                        ("to", Obs.Trace.Str (Netsim.Net.Host.name target));
                      ]))
               Wire.Proc.callback
               {
                 Wire.cb_fh = { Wire.fsid = Wire.fsid t.srv; ino; gen };
                 cb_writeback = false;
                 cb_invalidate = true;
                 cb_ctx = Obs.Causal.id ctx;
               }))
        victims

let handle_open t ~caller ~ctx ((fh : Wire.fh), write_mode) =
  let attrs = Localfs.getattr ~ctx (Wire.fs t.srv) fh.ino in
  let f = entry t fh.ino in
  if write_mode then begin
    t.counter <- t.counter + 1;
    f.version <- t.counter
  end;
  add_cacher f caller;
  (f.version, attrs)

let threads = 4

let serve rpc host ~fsid fs =
  let t =
    {
      srv = Wire.server rpc host ~prog ~threads ~fsid fs;
      table = Hashtbl.create 64;
      counter = 0;
    }
  in
  Wire.serve t.srv
    (Wire.serves Wire.Proc.rfs_open (fun ~caller ~ctx args ->
         handle_open t ~caller ~ctx args)
    (* the cacher list persists: closed files may stay cached until a
       write invalidates them *)
    :: Wire.serves Wire.Proc.close (fun ~caller:_ ~ctx:_ _ -> ())
    :: Wire.basic t.srv
         ~on_read:(fun ~ino ~caller ~ctx:_ ->
           (* whoever fetches data may cache it and must be told when a
              write invalidates it *)
           add_cacher (entry t ino) caller)
         ~on_write:(fun ~ino ~caller ~ctx -> on_write t ~ino ~caller ~ctx)
         ~on_remove:(fun ~ino ~ctx:_ -> Hashtbl.remove t.table ino));
  t

let root_fh t = Wire.root_fh t.srv
let service t = Wire.service t.srv
