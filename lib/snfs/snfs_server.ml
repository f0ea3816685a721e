let prog = "snfs"

let client_prog_for fsid = "snfs_cb." ^ string_of_int fsid

type t = {
  rpc : Netsim.Rpc.t;
  host : Netsim.Net.Host.t;
  core : Nfs.Wire.server_core;
  mutable table : Spritely.State_table.t;
  max_table_entries : int;
  service : Netsim.Rpc.service;
  callback_tokens : Sim.Semaphore.t; (* at most threads-1 concurrent *)
  mutable callbacks_sent : int;
  (* client addr -> last RPC time. The cell is a [float ref] rather
     than a float value so the per-request refresh is a store into the
     existing (flat, unboxed) cell instead of a boxed-float
     [replace]. *)
  last_heard : float ref Sim.Inttbl.t;
  (* per-file consistency critical section: the table must not be
     consulted by a second open while a first open's callbacks are
     still in flight, or the second open trusts a cachability the
     target client has not yet learned about *)
  file_locks : Sim.Semaphore.t Sim.Inttbl.t;
  mutable clients_reaped : int;
  (* the NFSD-style Active/Courtesy/Expirable ledger; None until the
     laundromat is started (oracle runs and plain benchmarks never
     start one, and then callbacks keep the legacy blunt behavior) *)
  mutable lifecycle : Spritely.Lifecycle.t option;
  mutable laundromat_runs : int;
  mutable demotions : int;
  mutable revivals : int;
  mutable reaped_courtesy : int;
  mutable reaped_expirable : int;
  recovery_grace : float;
  mutable grace_until : float;
  recovered : (int, unit) Hashtbl.t; (* clients that replayed state *)
  engine : Sim.Engine.t;
}

let mode_of_flag write_mode =
  if write_mode then Spritely.State_table.Write else Spritely.State_table.Read

let server_event t name args =
  if Obs.Trace.on () then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"snfs" ~name
      ~track:(Netsim.Net.Host.name t.host)
      ~args ()

(* Count one consistency-state transition, labeled with the Table 4-1
   state the file just entered. *)
let note_state t ~file =
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:
        [
          ( "state",
            Spritely.State_table.state_to_string
              (Spritely.State_table.state t.table ~file) );
        ]
      "snfs_state_transitions_total"

(* Reap one client: its opens are dropped, files it may have dirtied
   are flagged inconsistent, and its lifecycle entry (if any) goes. The
   [state] names the lifecycle stage it was reaped from, for the
   by-state counters. *)
let reap t client ~(state : Spritely.Lifecycle.state) =
  t.clients_reaped <- t.clients_reaped + 1;
  (match state with
  | Spritely.Lifecycle.Courtesy -> t.reaped_courtesy <- t.reaped_courtesy + 1
  | Spritely.Lifecycle.Expirable -> t.reaped_expirable <- t.reaped_expirable + 1
  | Spritely.Lifecycle.Active -> ());
  if Obs.Metrics.on () then begin
    Obs.Metrics.incr "snfs_clients_reaped_total";
    Obs.Metrics.incr
      ~labels:[ ("state", Spritely.Lifecycle.state_to_string state) ]
      "snfs_laundromat_reaps_total"
  end;
  server_event t "client_reaped"
    [
      ("client", Obs.Trace.Int client);
      ("state", Obs.Trace.Str (Spritely.Lifecycle.state_to_string state));
    ];
  ignore (Sim.Inttbl.remove t.last_heard client);
  (match t.lifecycle with
  | Some lc -> Spritely.Lifecycle.forget lc ~client
  | None -> ());
  Spritely.State_table.forget_client t.table client

let note_callback_failure ~cause =
  if Obs.Metrics.on () then begin
    Obs.Metrics.incr "snfs_callbacks_failed_total";
    Obs.Metrics.incr ~labels:[ ("cause", cause) ]
      "snfs_callback_failures_total"
  end

(* A callback prescribed against a Courtesy (or Expirable) client IS
   the conflict of the lifecycle contract: another client's open needs
   state only this silent client holds. Promote it to Expirable and
   reap it on the spot — the waiting opener must not block on a 31 s
   ping schedule to a client the laundromat already suspects. Returns
   true when the callback was resolved this way (nothing to send). *)
let conflict_with_suspect t ~file (cb : Spritely.State_table.callback) =
  match t.lifecycle with
  | None -> false
  | Some lc -> (
      match Spritely.Lifecycle.state lc ~client:cb.target with
      | Spritely.Lifecycle.Active -> false
      | Spritely.Lifecycle.Courtesy | Spritely.Lifecycle.Expirable ->
          ignore (Spritely.Lifecycle.note_conflict lc ~client:cb.target);
          note_callback_failure ~cause:"courtesy_conflict";
          server_event t "callback_conflict"
            [ ("file", Obs.Trace.Int file);
              ("client", Obs.Trace.Int cb.target) ];
          reap t cb.target ~state:Spritely.Lifecycle.Expirable;
          true)

(* Deliver one callback prescribed by the state table. A dead client
   is forgotten, as Section 3.2 prescribes; its dirty data (if any) is
   lost and the entry stays flagged inconsistent. *)
let perform_callback_live t ~ctx ~file (cb : Spritely.State_table.callback) =
  let target = Netsim.Net.Host.by_addr (Netsim.Rpc.net t.rpc) cb.target in
  let attrs = Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) file in
  let args =
    {
      Nfs.Wire.cb_fh =
        {
          Nfs.Wire.fsid = Nfs.Wire.core_fsid t.core;
          ino = file;
          gen = attrs.Localfs.gen;
        };
      cb_writeback = cb.writeback;
      cb_invalidate = cb.invalidate;
      cb_ctx = Obs.Causal.id ctx;
    }
  in
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_callback e args;
  t.callbacks_sent <- t.callbacks_sent + 1;
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:
        [
          ( "kind",
            match (cb.writeback, cb.invalidate) with
            | true, true -> "writeback_invalidate"
            | true, false -> "writeback"
            | false, true -> "invalidate"
            | false, false -> "relinquish" );
        ]
      "snfs_callbacks_sent_total";
  if Obs.Trace.on () && Obs.Causal.keep ctx then
    server_event t "callback_send"
      (Obs.Causal.arg ctx
         [
           ("file", Obs.Trace.Int file);
           ("to", Obs.Trace.Str (Netsim.Net.Host.name target));
           ("writeback", Obs.Trace.Bool cb.writeback);
           ("invalidate", Obs.Trace.Bool cb.invalidate);
         ]);
  (* the flow event ties the induced callback work on the target
     client back to the inducing client operation *)
  if Obs.Causal.live ctx then
    Obs.Trace.flow_start
      ~ts:(Sim.Engine.now t.engine)
      ~track:(Netsim.Net.Host.name t.host)
      ~id:(Obs.Causal.id ctx) ();
  (* a short retry schedule: the opener waiting on this callback must
     not itself time out before we give up on a dead client *)
  match
    Netsim.Rpc.call t.rpc ~ctx
      ~config:(Netsim.Rpc.impatient (Netsim.Rpc.config t.rpc))
      ~src:t.host ~dst:target
      ~prog:(client_prog_for (Nfs.Wire.core_fsid t.core))
      ~proc:Nfs.Wire.p_callback (Xdr.Enc.to_bytes e)
  with
  | _reply ->
      if cb.writeback then
        Spritely.State_table.note_clean t.table ~file ~client:cb.target
  | exception Netsim.Rpc.Timeout _ -> (
      note_callback_failure ~cause:"timeout";
      server_event t "callback_failed"
        [
          ("file", Obs.Trace.Int file);
          ("to", Obs.Trace.Str (Netsim.Net.Host.name target));
        ];
      (* with a lifecycle the dead target walks the whole ladder at
         once — demoted for silence, promoted because this very
         callback is a conflict, reaped; without one, the legacy blunt
         forget *)
      match t.lifecycle with
      | Some lc ->
          ignore
            (Spritely.Lifecycle.demote lc ~client:cb.target
               ~now:(Sim.Engine.now t.engine));
          ignore (Spritely.Lifecycle.note_conflict lc ~client:cb.target);
          reap t cb.target ~state:Spritely.Lifecycle.Expirable
      | None -> Spritely.State_table.forget_client t.table cb.target)

let perform_callback t ~ctx ~file (cb : Spritely.State_table.callback) =
  if conflict_with_suspect t ~file cb then ()
  else perform_callback_live t ~ctx ~file cb

let perform_callbacks t ~ctx ~file callbacks =
  if callbacks <> [] then
    Sim.Semaphore.with_unit t.callback_tokens (fun () ->
        List.iter (perform_callback t ~ctx ~file) callbacks)

(* The table is full of apparently-open files — usually delayed-close
   clients (Section 6.2). Ask the least-recently-active entry's clients
   to relinquish: a callback with neither flag set tells a client to
   release any withheld closes. Returns true if it is worth retrying
   the open. *)
let relinquish_for_space t ~ctx =
  match Spritely.State_table.least_recently_active_open t.table with
  | None -> false
  | Some (file, clients) ->
      perform_callbacks t ~ctx ~file
        (List.map
           (fun client ->
             {
               Spritely.State_table.target = client;
               writeback = false;
               invalidate = false;
             })
           clients);
      true

let in_grace t = Sim.Engine.now t.engine < t.grace_until

(* the laundromat's lease clock: [client] was heard from just now *)
let heard t client =
  let cell = Sim.Inttbl.find t.last_heard client in
  if cell != Sim.Inttbl.empty t.last_heard then
    cell := Sim.Engine.now t.engine
  else Sim.Inttbl.replace t.last_heard client (ref (Sim.Engine.now t.engine))

let with_file_lock t file f =
  let lock =
    let l = Sim.Inttbl.find t.file_locks file in
    if l != Sim.Inttbl.empty t.file_locks then l
    else begin
      let l = Sim.Semaphore.create t.engine 1 in
      Sim.Inttbl.replace t.file_locks file l;
      l
    end
  in
  Sim.Semaphore.with_unit lock f

let handle_open t ~caller ~ctx d =
  let fh = Nfs.Wire.dec_fh d in
  let write_mode = Xdr.Dec.bool d in
  let e = Xdr.Enc.create () in
  if in_grace t && not (Hashtbl.mem t.recovered caller) then begin
    (* the consistency state may not change until recovery completes
       (Section 2.4); the client backs off and retries *)
    server_event t "grace_reject"
      [ ("file", Obs.Trace.Int fh.Nfs.Wire.ino);
        ("caller", Obs.Trace.Int caller) ];
    Nfs.Wire.enc_status e (Error Localfs.Again);
    { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }
  end
  else begin
  with_file_lock t fh.Nfs.Wire.ino @@ fun () ->
  (match Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) fh.Nfs.Wire.ino with
  | attrs -> (
      let rec try_open retried =
        match
          Spritely.State_table.open_file t.table ~file:fh.Nfs.Wire.ino
            ~client:caller ~mode:(mode_of_flag write_mode)
        with
        | result ->
            note_state t ~file:fh.Nfs.Wire.ino;
            (* the opener must not see the file until the other clients'
               dirty blocks are back and their caches are off *)
            perform_callbacks t ~ctx ~file:fh.Nfs.Wire.ino
              result.Spritely.State_table.callbacks;
            (* attributes may have changed during the write-backs *)
            let attrs =
              try Localfs.getattr ~ctx (Nfs.Wire.core_fs t.core) fh.Nfs.Wire.ino
              with Localfs.Error _ -> attrs
            in
            Nfs.Wire.enc_status e (Ok ());
            Xdr.Enc.bool e result.Spritely.State_table.cache_enabled;
            Xdr.Enc.uint32 e result.Spritely.State_table.version;
            Xdr.Enc.uint32 e result.Spritely.State_table.prev_version;
            Nfs.Wire.enc_attrs e attrs
        | exception Spritely.State_table.Table_full ->
            if (not retried) && relinquish_for_space t ~ctx then try_open true
            else Nfs.Wire.enc_status e (Error Localfs.Stale)
      in
      try_open false)
  | exception Localfs.Error err -> Nfs.Wire.enc_status e (Error err));
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }
  end

let handle_close t ~caller d =
  let fh = Nfs.Wire.dec_fh d in
  let write_mode = Xdr.Dec.bool d in
  (* a close the server does not know about (it rebooted, or reclaimed
     the entry) is harmless; tolerate it *)
  (try
     Spritely.State_table.close_file t.table ~file:fh.Nfs.Wire.ino
       ~client:caller ~mode:(mode_of_flag write_mode);
     note_state t ~file:fh.Nfs.Wire.ino
   with Invalid_argument _ -> ());
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_status e (Ok ());
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let handle_ping t =
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_status e (Ok ());
  Xdr.Enc.uint32 e (Netsim.Net.Host.boot_epoch t.host);
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

(* recovery: one client's statement of everything it holds *)
let handle_reopen t ~caller d =
  Hashtbl.replace t.recovered caller ();
  let n = Xdr.Dec.uint32 d in
  server_event t "reopen_merge"
    [ ("caller", Obs.Trace.Int caller); ("files", Obs.Trace.Int n) ];
  for _ = 1 to n do
    let file = Xdr.Dec.uint32 d in
    let readers = Xdr.Dec.uint32 d in
    let writers = Xdr.Dec.uint32 d in
    let can_cache = Xdr.Dec.bool d in
    let dirty = Xdr.Dec.bool d in
    let version = Xdr.Dec.uint32 d in
    Spritely.State_table.merge_report t.table
      {
        Spritely.State_table.r_client = caller;
        r_file = file;
        r_readers = readers;
        r_writers = writers;
        r_can_cache = can_cache;
        r_dirty = dirty;
        r_version = version;
      }
  done;
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_status e (Ok ());
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

(* the default thread count leaves headroom for open handlers parked on
   a file lock while another open's callbacks complete; at least one
   thread must stay free to serve the write-backs those callbacks
   provoke (Section 3.2's N-1 rule, extended) *)
let serve rpc host ?(threads = 8) ?(max_table_entries = 1000)
    ?(recovery_grace = 0.0) ~fsid fs =
  if threads < 2 then invalid_arg "Snfs_server.serve: need at least 2 threads";
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let rec t =
    lazy
      (let core =
         Nfs.Wire.make_server_core ~fsid fs
           ~on_remove:(fun ~ino ~ctx:_ ->
             let tt = Lazy.force t in
             Spritely.State_table.remove_file tt.table ~file:ino)
           ()
       in
       let handler ~caller ~ctx ~proc dec =
         let tt = Lazy.force t in
         let caller_addr = Netsim.Net.Host.addr caller in
         heard tt caller_addr;
         (* any RPC from a Courtesy client revives it: it resumes with
            its state intact, no reopen storm. The [nonactive] guard
            keeps this off the hot path while nobody is suspect. *)
         (match tt.lifecycle with
         | Some lc when Spritely.Lifecycle.nonactive lc > 0 ->
             if Spritely.Lifecycle.revive lc ~client:caller_addr then begin
               tt.revivals <- tt.revivals + 1;
               if Obs.Metrics.on () then
                 Obs.Metrics.incr
                   ~labels:[ ("via", "rpc") ]
                   "snfs_laundromat_revivals_total";
               server_event tt "client_revived"
                 [ ("client", Obs.Trace.Int caller_addr);
                   ("via", Obs.Trace.Str "rpc") ]
             end
         | _ -> ());
         if proc = Nfs.Wire.p_open then
           handle_open tt ~caller:caller_addr ~ctx dec
         else if proc = Nfs.Wire.p_close then
           handle_close tt ~caller:caller_addr dec
         else if proc = Nfs.Wire.p_ping then handle_ping tt
         else if proc = Nfs.Wire.p_reopen then
           handle_reopen tt ~caller:caller_addr dec
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
         table = Spritely.State_table.create ~max_entries:max_table_entries ();
         max_table_entries;
         service;
         callback_tokens = Sim.Semaphore.create engine (threads - 1);
         callbacks_sent = 0;
         last_heard = Sim.Inttbl.create ~empty:(ref 0.0) 16;
         file_locks =
           Sim.Inttbl.create ~empty:(Sim.Semaphore.create engine 1) 32;
         clients_reaped = 0;
         lifecycle = None;
         laundromat_runs = 0;
         demotions = 0;
         revivals = 0;
         reaped_courtesy = 0;
         reaped_expirable = 0;
         recovery_grace;
         grace_until = 0.0;
         recovered = Hashtbl.create 16;
         engine;
       })
  in
  let t = Lazy.force t in
  (* volatile consistency state dies with the server process *)
  Netsim.Rpc.set_on_restart t.service (fun () ->
      t.table <-
        Spritely.State_table.create ~max_entries:t.max_table_entries ();
      t.callbacks_sent <- 0;
      Hashtbl.reset t.recovered;
      (* the courtesy ledger is volatile too: a rebooted server starts
         trusting everyone again and relearns silence from scratch *)
      (match t.lifecycle with
      | Some lc -> Spritely.Lifecycle.reset lc
      | None -> ());
      t.grace_until <- Sim.Engine.now engine +. t.recovery_grace);
  t

let deliver_callbacks ?(ctx = Obs.Causal.none) t ~file callbacks =
  perform_callbacks t ~ctx ~file callbacks

(* clients currently holding any state in the table *)
let clients_with_state t =
  List.concat_map
    (fun file ->
      let openers =
        List.map (fun (c, _, _) -> c) (Spritely.State_table.openers t.table ~file)
      in
      match Spritely.State_table.last_writer t.table ~file with
      | Some w -> w :: openers
      | None -> openers)
    (Spritely.State_table.files t.table)
  |> List.sort_uniq compare

(* The periodic laundromat (Section 2.4's "tracking the passage of
   time", done the way Linux NFSD does it). Each pass:
   1. pings every Active client with state that has been silent at
      least [lease] seconds; no answer demotes it to Courtesy with all
      its state retained;
   2. pings every Courtesy client, so one that was merely partitioned
      is revived as soon as the network heals, even if it never sends
      traffic of its own;
   3. reaps what is due: every Expirable client (a conflict claimed
      it) and every Courtesy client older than [courtesy_lifetime] —
      courtesy clients cannot linger indefinitely. *)
let start_laundromat ?(lease = 120.0) ?(courtesy_lifetime = 300.0) t ~interval =
  if t.lifecycle <> None then
    invalid_arg "Snfs_server.start_laundromat: already started";
  let engine = Netsim.Net.engine (Netsim.Rpc.net t.rpc) in
  let lc = Spritely.Lifecycle.create ~courtesy_lifetime () in
  t.lifecycle <- Some lc;
  Obs.Metrics.register_poll
    ~labels:[ ("state", "active") ]
    "snfs_clients"
    (fun () ->
      let suspects = Spritely.Lifecycle.nonactive lc in
      float_of_int (max 0 (List.length (clients_with_state t) - suspects)));
  Obs.Metrics.register_poll
    ~labels:[ ("state", "courtesy") ]
    "snfs_clients"
    (fun () -> float_of_int (fst (Spritely.Lifecycle.counts lc)));
  Obs.Metrics.register_poll
    ~labels:[ ("state", "expirable") ]
    "snfs_clients"
    (fun () -> float_of_int (snd (Spritely.Lifecycle.counts lc)));
  let probe client =
    let target = Netsim.Net.Host.by_addr (Netsim.Rpc.net t.rpc) client in
    let e = Xdr.Enc.create () in
    match
      Netsim.Rpc.call t.rpc
        ~config:(Netsim.Rpc.impatient (Netsim.Rpc.config t.rpc))
        ~src:t.host ~dst:target
        ~prog:(client_prog_for (Nfs.Wire.core_fsid t.core))
        ~proc:Nfs.Wire.p_ping (Xdr.Enc.to_bytes e)
    with
    | _reply ->
        heard t client;
        true
    | exception Netsim.Rpc.Timeout _ -> false
  in
  let rec loop () =
    Sim.Engine.sleep engine interval;
    t.laundromat_runs <- t.laundromat_runs + 1;
    if Obs.Metrics.on () then Obs.Metrics.incr "snfs_laundromat_runs_total";
    let now = Sim.Engine.now engine in
    let silent_too_long client =
      let heard = Sim.Inttbl.find t.last_heard client in
      heard == Sim.Inttbl.empty t.last_heard || now -. !heard >= lease
    in
    (* 1: silent Active clients are probed; the unresponsive become
       Courtesy, their opens and dirty state retained *)
    List.iter
      (fun client ->
        if
          Spritely.Lifecycle.state lc ~client = Spritely.Lifecycle.Active
          && silent_too_long client
          && not (probe client)
        then
          if Spritely.Lifecycle.demote lc ~client ~now:(Sim.Engine.now engine)
          then begin
            t.demotions <- t.demotions + 1;
            if Obs.Metrics.on () then
              Obs.Metrics.incr "snfs_laundromat_demotions_total";
            server_event t "client_demoted"
              [ ("client", Obs.Trace.Int client) ]
          end)
      (clients_with_state t);
    (* 2: Courtesy clients are probed too — a healed partition revives
       one even before it sends traffic of its own *)
    List.iter
      (fun (client, state, _since) ->
        if state = Spritely.Lifecycle.Courtesy && probe client then
          if Spritely.Lifecycle.revive lc ~client then begin
            t.revivals <- t.revivals + 1;
            if Obs.Metrics.on () then
              Obs.Metrics.incr
                ~labels:[ ("via", "probe") ]
                "snfs_laundromat_revivals_total";
            server_event t "client_revived"
              [ ("client", Obs.Trace.Int client);
                ("via", Obs.Trace.Str "probe") ]
          end)
      (Spritely.Lifecycle.to_list lc);
    (* 3: reap what is due (with courtesy_lifetime = 0 a client
       demoted in step 1 is due in the same pass) *)
    List.iter
      (fun (client, state) -> reap t client ~state)
      (Spritely.Lifecycle.due lc ~now:(Sim.Engine.now engine));
    loop ()
  in
  Sim.Engine.spawn engine ~name:"snfs.laundromat" loop

type lifecycle_stats = {
  laundromat_runs : int;
  demotions : int;
  revivals : int;
  reaped_courtesy : int;
  reaped_expirable : int;
}

let lifecycle_stats (t : t) =
  {
    laundromat_runs = t.laundromat_runs;
    demotions = t.demotions;
    revivals = t.revivals;
    reaped_courtesy = t.reaped_courtesy;
    reaped_expirable = t.reaped_expirable;
  }

let client_state t ~client =
  match t.lifecycle with
  | None -> Spritely.Lifecycle.Active
  | Some lc -> Spritely.Lifecycle.state lc ~client

let clients_reaped t = t.clients_reaped

let core t = t.core

let root_fh t = Nfs.Wire.root_fh t.core
let service t = t.service
let counters t = Netsim.Rpc.counters t.service
let state_table t = t.table
let callbacks_sent t = t.callbacks_sent
