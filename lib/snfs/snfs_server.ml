module Wire = Nfs.Wire

let prog = "snfs"

type t = {
  host : Netsim.Net.Host.t;
  core : Wire.server_core;
  srv : Wire.server;
  mutable table : Spritely.State_table.t;
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

let server_event t name args = Wire.event t.srv ~cat:"snfs" ~name args

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
  let target = Wire.client t.srv cb.target in
  let gen = (Localfs.getattr ~ctx (Wire.core_fs t.core) file).Localfs.gen in
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
  (* a short retry schedule: the opener waiting on this callback must
     not itself time out before we give up on a dead client *)
  if
    Wire.callback t.srv ~impatient:true ~ctx ~target
      ~instant:(fun () ->
        server_event t "callback_send"
          (Obs.Causal.arg ctx
             [
               ("file", Obs.Trace.Int file);
               ("to", Obs.Trace.Str (Netsim.Net.Host.name target));
               ("writeback", Obs.Trace.Bool cb.writeback);
               ("invalidate", Obs.Trace.Bool cb.invalidate);
             ]))
      Wire.Proc.callback
      {
        Wire.cb_fh = { Wire.fsid = Wire.core_fsid t.core; ino = file; gen };
        cb_writeback = cb.writeback;
        cb_invalidate = cb.invalidate;
        cb_ctx = Obs.Causal.id ctx;
      }
  then (
    if cb.writeback then
      Spritely.State_table.note_clean t.table ~file ~client:cb.target)
  else begin
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
    | None -> Spritely.State_table.forget_client t.table cb.target
  end

let perform_callback t ~ctx ~file (cb : Spritely.State_table.callback) =
  if not (conflict_with_suspect t ~file cb) then
    perform_callback_live t ~ctx ~file cb

let perform_callbacks t ~ctx ~file callbacks =
  if callbacks <> [] then
    Sim.Semaphore.with_unit (Wire.callback_tokens t.srv) (fun () ->
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

let handle_open t ~caller ~ctx ((fh : Wire.fh), write_mode) =
  let file = fh.ino in
  if in_grace t && not (Hashtbl.mem t.recovered caller) then begin
    (* the consistency state may not change until recovery completes
       (Section 2.4); the client backs off and retries *)
    server_event t "grace_reject"
      [ ("file", Obs.Trace.Int file); ("caller", Obs.Trace.Int caller) ];
    raise (Localfs.Error Localfs.Again)
  end;
  with_file_lock t file @@ fun () ->
  let attrs = Localfs.getattr ~ctx (Wire.core_fs t.core) file in
  let rec try_open retried =
    match
      Spritely.State_table.open_file t.table ~file ~client:caller
        ~mode:(mode_of_flag write_mode)
    with
    | exception Spritely.State_table.Table_full ->
        if (not retried) && relinquish_for_space t ~ctx then try_open true
        else raise (Localfs.Error Localfs.Stale)
    | result ->
        note_state t ~file;
        (* the opener must not see the file until the other clients'
           dirty blocks are back and their caches are off *)
        perform_callbacks t ~ctx ~file result.Spritely.State_table.callbacks;
        {
          Wire.cache_enabled = result.Spritely.State_table.cache_enabled;
          version = result.Spritely.State_table.version;
          prev_version = result.Spritely.State_table.prev_version;
          (* attributes may have changed during the write-backs *)
          attrs =
            (try Localfs.getattr ~ctx (Wire.core_fs t.core) file
             with Localfs.Error _ -> attrs);
        }
  in
  try_open false

let handle_close t ~caller ((fh : Wire.fh), write_mode) =
  (* a close the server does not know about (it rebooted, or reclaimed
     the entry) is harmless; tolerate it *)
  try
    Spritely.State_table.close_file t.table ~file:fh.ino ~client:caller
      ~mode:(mode_of_flag write_mode);
    note_state t ~file:fh.ino
  with Invalid_argument _ -> ()

(* recovery: one client's statement of everything it holds *)
let handle_reopen t ~caller reports =
  Hashtbl.replace t.recovered caller ();
  server_event t "reopen_merge"
    [ ("caller", Obs.Trace.Int caller);
      ("files", Obs.Trace.Int (List.length reports)) ];
  List.iter
    (fun ((file, readers, writers), (can_cache, dirty, version)) ->
      Spritely.State_table.merge_report t.table
        {
          Spritely.State_table.r_client = caller;
          r_file = file;
          r_readers = readers;
          r_writers = writers;
          r_can_cache = can_cache;
          r_dirty = dirty;
          r_version = version;
        })
    reports

(* Every request refreshes the caller's lease, and any RPC from a
   Courtesy client revives it: it resumes with its state intact, no
   reopen storm. The [nonactive] guard keeps the revival off the hot
   path while nobody is suspect. *)
let heard_from t caller =
  heard t caller;
  match t.lifecycle with
  | Some lc when Spritely.Lifecycle.nonactive lc > 0 ->
      if Spritely.Lifecycle.revive lc ~client:caller then begin
        t.revivals <- t.revivals + 1;
        if Obs.Metrics.on () then
          Obs.Metrics.incr
            ~labels:[ ("via", "rpc") ]
            "snfs_laundromat_revivals_total";
        server_event t "client_revived"
          [ ("client", Obs.Trace.Int caller); ("via", Obs.Trace.Str "rpc") ]
      end
  | _ -> ()

(* SNFS's procedures, then the basic ones, each after the lease refresh;
   [t] is the server under construction *)
let procs (t : t Lazy.t) core =
  List.map
    (fun (name, handler) ->
      ( name,
        fun ~caller ~ctx d ->
          heard_from (Lazy.force t) (Netsim.Net.Host.addr caller);
          handler ~caller ~ctx d ))
    (Wire.serves Wire.Proc.snfs_open (fun ~caller ~ctx args ->
         handle_open (Lazy.force t) ~caller ~ctx args)
    :: Wire.serves Wire.Proc.close (fun ~caller ~ctx:_ args ->
           handle_close (Lazy.force t) ~caller args)
    :: Wire.serves Wire.Proc.ping (fun ~caller:_ ~ctx:_ () ->
           Netsim.Net.Host.boot_epoch (Lazy.force t).host)
    :: Wire.serves Wire.Proc.reopen (fun ~caller ~ctx:_ reports ->
           handle_reopen (Lazy.force t) ~caller reports)
    :: Wire.basic core)

(* the default thread count leaves headroom for open handlers parked on
   a file lock while another open's callbacks complete; at least one
   thread must stay free to serve the write-backs those callbacks
   provoke (Section 3.2's N-1 rule, extended) *)
let serve rpc host ?(threads = 8) ?(recovery_grace = 0.0) ~fsid fs =
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let rec t =
    lazy
      (let core =
         Wire.make_server_core ~fsid fs
           ~on_remove:(fun ~ino ~ctx:_ ->
             Spritely.State_table.remove_file (Lazy.force t).table ~file:ino)
           ()
       in
       let srv = Wire.serve rpc host ~prog ~threads core (procs t core) in
       {
         host;
         core;
         srv;
         table = Spritely.State_table.create ();
         callbacks_sent = 0;
         last_heard = Sim.Inttbl.create ~empty:(ref 0.0);
         file_locks = Sim.Inttbl.create ~empty:(Sim.Semaphore.create engine 1);
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
  Netsim.Rpc.set_on_restart (Wire.service t.srv) (fun () ->
      t.table <- Spritely.State_table.create ();
      t.callbacks_sent <- 0;
      Hashtbl.reset t.recovered;
      (* the courtesy ledger is volatile too: a rebooted server starts
         trusting everyone again and relearns silence from scratch *)
      (match t.lifecycle with
      | Some lc -> Spritely.Lifecycle.reset lc
      | None -> ());
      t.grace_until <- Sim.Engine.now engine +. t.recovery_grace);
  t

let open_implicit t ~ctx ~file ~client ~write =
  with_file_lock t file @@ fun () ->
  let result =
    Spritely.State_table.open_file t.table ~file ~client
      ~mode:(mode_of_flag write)
  in
  perform_callbacks t ~ctx ~file result.Spritely.State_table.callbacks

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
  let engine = t.engine in
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
    Wire.callback t.srv ~impatient:true ~ctx:Obs.Causal.none
      ~target:(Wire.client t.srv client) ~instant:ignore Wire.Proc.ping ()
    && begin
         heard t client;
         true
       end
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

let root_fh t = Wire.root_fh t.core
let service t = Wire.service t.srv
let counters t = Netsim.Rpc.counters (service t)
let state_table t = t.table
let callbacks_sent t = t.callbacks_sent
