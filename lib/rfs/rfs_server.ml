let prog = "rfs"

let client_prog_for fsid = "rfs_cb." ^ string_of_int fsid

(* Per-file consistency record: who may be caching, and the version
   used to revalidate caches on reopen. *)
type fentry = { mutable version : int; mutable cachers : int list }

type t = {
  rpc : Netsim.Rpc.t;
  host : Netsim.Net.Host.t;
  core : Nfs.Wire.server_core;
  table : (int, fentry) Hashtbl.t;
  service : Netsim.Rpc.service;
  (* at most threads-1 handlers may be issuing callbacks, so the
     write-backs they provoke can always be served (the deadlock
     Section 3.2 warns about) *)
  callback_tokens : Sim.Semaphore.t;
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
      Sim.Semaphore.with_unit t.callback_tokens @@ fun () ->
      List.iter
        (fun victim ->
          let target = Netsim.Net.Host.by_addr (Netsim.Rpc.net t.rpc) victim in
          let gen =
            try (Localfs.getattr (Nfs.Wire.core_fs t.core) ino).Localfs.gen
            with Localfs.Error _ -> 1
          in
          let e = Xdr.Enc.create () in
          Nfs.Wire.enc_callback e
            {
              Nfs.Wire.cb_fh =
                { Nfs.Wire.fsid = Nfs.Wire.core_fsid t.core; ino; gen };
              cb_writeback = false;
              cb_invalidate = true;
              cb_ctx = Obs.Causal.id ctx;
            };
          if Obs.Metrics.on () then
            Obs.Metrics.incr "rfs_invalidations_sent_total";
          if Obs.Trace.on () && Obs.Causal.keep ctx then begin
            let ts =
              Sim.Engine.now (Netsim.Net.engine (Netsim.Rpc.net t.rpc))
            in
            Obs.Trace.instant ~ts ~cat:"rfs" ~name:"callback_send"
              ~track:(Netsim.Net.Host.name t.host)
              ~args:
                (Obs.Causal.arg ctx
                   [
                     ("file", Obs.Trace.Int ino);
                     ("to", Obs.Trace.Str (Netsim.Net.Host.name target));
                   ])
              ();
            if Obs.Causal.live ctx then
              Obs.Trace.flow_start ~ts
                ~track:(Netsim.Net.Host.name t.host)
                ~id:(Obs.Causal.id ctx) ()
          end;
          try
            ignore
              (Netsim.Rpc.call t.rpc ~ctx ~src:t.host ~dst:target
                 ~prog:(client_prog_for (Nfs.Wire.core_fsid t.core))
                 ~proc:Nfs.Wire.p_callback (Xdr.Enc.to_bytes e))
          with Netsim.Rpc.Timeout _ -> ())
        victims

let handle_open t ~caller ~ctx d =
  let fh = Nfs.Wire.dec_fh d in
  let write_mode = Xdr.Dec.bool d in
  let e = Xdr.Enc.create () in
  (match Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) fh.Nfs.Wire.ino with
  | attrs ->
      let f = entry t fh.Nfs.Wire.ino in
      if write_mode then begin
        t.counter <- t.counter + 1;
        f.version <- t.counter
      end;
      add_cacher f caller;
      Nfs.Wire.enc_status e (Ok ());
      Xdr.Enc.uint32 e f.version;
      Nfs.Wire.enc_attrs e attrs
  | exception Localfs.Error err -> Nfs.Wire.enc_status e (Error err));
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let handle_close t d =
  let _fh = Nfs.Wire.dec_fh d in
  let _write = Xdr.Dec.bool d in
  ignore t;
  (* the cacher list persists: closed files may stay cached until a
     write invalidates them *)
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_status e (Ok ());
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let threads = 4

let serve rpc host ~fsid fs =
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let rec t =
    lazy
      (let core =
         Nfs.Wire.make_server_core ~fsid fs
           ~on_read:(fun ~ino ~caller ~ctx:_ ->
             (* whoever fetches data may cache it and must be told when
                a write invalidates it *)
             add_cacher (entry (Lazy.force t) ino) caller)
           ~on_write:(fun ~ino ~caller ~ctx ->
             on_write (Lazy.force t) ~ino ~caller ~ctx)
           ~on_remove:(fun ~ino ~ctx:_ ->
             Hashtbl.remove (Lazy.force t).table ino)
           ()
       in
       let handler ~caller ~ctx ~proc dec =
         let tt = Lazy.force t in
         let caller_addr = Netsim.Net.Host.addr caller in
         if proc = Nfs.Wire.p_open then
           handle_open tt ~caller:caller_addr ~ctx dec
         else if proc = Nfs.Wire.p_close then handle_close tt dec
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
         table = Hashtbl.create 64;
         service;
         callback_tokens = Sim.Semaphore.create engine (threads - 1);
         counter = 0;
       })
  in
  Lazy.force t

let root_fh t = Nfs.Wire.root_fh t.core
let service t = t.service
