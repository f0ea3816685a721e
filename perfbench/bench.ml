(* Host-cost benchmark for the simulator.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --self-check --bound B

   One process, one OCaml domain, closed loop: units run one after
   another. With --trace 0 it sets the workload up (several times, for a
   median set-up time), runs units for S seconds and prints the
   end-to-end metrics. With --trace 1 it runs the workload's traced pass
   beside its plain twin, a pass with the program's metrics registry on
   for exact counts, and the layer replay budget, and prints the
   per-layer metrics. The last line of standard output is one JSON
   object: correct, attempted, failed, metrics. *)

module W = Workloads

let now_ns = Vtrace.now_ns

(* Unit and pass times are the process's CPU time: the simulator is
   single-threaded, and on a shared host CPU time does not count the
   time other processes hold the core. Deadlines and vnode spans use
   the monotonic clock. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---- outcomes and the checks on them ---- *)

type outcome = Done of W.model | Aborted of string

type tally = {
  workload : string;
  mutable attempted : int;  (** sub-runs *)
  mutable ok : int;
  mutable unexpected : int;  (** failures not on the known-abort list *)
  mutable correct : bool;
  failures : (string * int64, int * string * bool) Hashtbl.t;
  reference : (int * int, outcome) Hashtbl.t;
      (** (unit, sub-run) -> first outcome seen; later runs must match *)
}

let tally workload =
  {
    workload;
    attempted = 0;
    ok = 0;
    unexpected = 0;
    correct = true;
    failures = Hashtbl.create 32;
    reference = Hashtbl.create 256;
  }

let incorrect t fmt =
  Printf.ksprintf
    (fun msg ->
      t.correct <- false;
      Printf.printf "INCORRECT %s: %s\n%!" t.workload msg)
    fmt

(* Run one sub-run and check it. A sub-run that raises, or whose oracle
   fails, is a failure. So is one whose outcome differs from the first
   run of the same (unit, sub-run), and that also makes the whole run
   incorrect: the simulation is deterministic, and the traced stacks
   must match the library's. *)
let run_sub t ~ui ~si (sub : W.sub) f =
  let outcome =
    match f () with m -> Done m | exception e -> Aborted (Printexc.to_string e)
  in
  t.attempted <- t.attempted + 1;
  let same =
    match Hashtbl.find_opt t.reference (ui, si) with
    | None ->
        Hashtbl.replace t.reference (ui, si) outcome;
        true
    | Some o -> o = outcome
  in
  if not same then
    incorrect t "%s seed %Ld: outcome differs from the first run" sub.protocol
      sub.seed;
  (match outcome with
  | Done m ->
      if not (Float.is_finite m.sim_s && m.sim_s > 0.0) then
        incorrect t "%s seed %Ld: simulated time %h" sub.protocol sub.seed
          m.sim_s
  | Aborted msg ->
      let key = (sub.protocol, sub.seed) in
      let n =
        match Hashtbl.find_opt t.failures key with
        | Some (n, _, _) -> n
        | None -> 0
      in
      Hashtbl.replace t.failures key
        (n + 1, msg, W.known_abort t.workload sub));
  let ok = same && match outcome with Done _ -> true | Aborted _ -> false in
  if ok then t.ok <- t.ok + 1
  else if not (same && W.known_abort t.workload sub) then
    t.unexpected <- t.unexpected + 1;
  ok

(* One unit: all its sub-runs. Returns whether every sub-run was ok, the
   unit's CPU time and the CPU time spent inside calls into the
   program. *)
let run_unit t ~ui subs f =
  let t0 = cpu_ns () in
  let inside = ref 0 and ok = ref true in
  List.iteri
    (fun si sub ->
      let s0 = cpu_ns () in
      if not (run_sub t ~ui ~si sub (fun () -> f sub)) then ok := false;
      inside := !inside + (cpu_ns () - s0))
    subs;
  (!ok, cpu_ns () - t0, !inside)

let report_failures t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.failures []
  |> List.sort compare
  |> List.iter (fun ((protocol, seed), (n, msg, expected)) ->
         Printf.printf "failed: workload=%s protocol=%s seed=%Ld runs=%d%s: %s\n"
           t.workload protocol seed n
           (if expected then " (known abort)" else "")
           msg)

(* ---- statistics ---- *)

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then (a.(i) *. (1.0 -. frac)) +. (a.(i + 1) *. frac)
    else a.(i)

let median xs = quantile xs 0.5

(* ---- output ---- *)

let print_result t metrics =
  report_failures t;
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-28s %16.6f %s\n" name v unit)
    metrics;
  let metric (name, unit, v) =
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    t.correct (max 1 t.attempted) t.unexpected
    (String.concat ", " (List.map metric metrics))

(* ---- host-speed calibration ---- *)

(* On a shared host, the process's CPU time per unit moves by half when
   another tenant loads the same physical core, for stretches of seconds
   to minutes. So each end-to-end time is scaled by a calibration loop
   timed just before it: a fixed piece of stdlib-only work, which no
   change to the simulator can speed up or slow down, and which slows
   with the host. A time is reported at the speed where the loop takes
   [reference_ms], about what it takes on an idle 2.1 GHz core. The loop
   builds a balanced tree, allocating as the simulator does; of the
   loops tried it tracked the simulator best (hash-table and
   random-array loops tracked it less well). The raw CPU times are
   printed beside the scaled ones. *)
let reference_ms = 3.0

module Int_map = Map.Make (Int)

let calibration_loop () =
  let m = ref Int_map.empty in
  for i = 0 to 15_000 do
    m := Int_map.add (i * 7919 mod 100_003) i !m
  done;
  ignore (Sys.opaque_identity (Int_map.cardinal !m))

(* [factor] scales CPU time to the reference speed; it is refreshed
   before a unit once [interval_ns] of CPU time has passed, so short
   units share one calibration *)
type calibration = { mutable factor : float; mutable at : int }

let interval_ns = 50_000_000

let calibrate c =
  let t0 = cpu_ns () in
  calibration_loop ();
  let now = cpu_ns () in
  c.factor <- reference_ms /. Float.max 0.1 (ms_of_ns (now - t0));
  c.at <- now

let calibration () =
  let c = { factor = 1.0; at = 0 } in
  calibrate c;
  c

let recalibrate c = if cpu_ns () - c.at > interval_ns then calibrate c

(* ---- end-to-end run ---- *)

let setups = 3
let plain sub = sub.W.plain ()

(* Set-up: build the workload's plan and run its warm-up units, which
   also record the reference outcomes later units are checked against. *)
let setup t name ~seed =
  let w = W.make name ~seed in
  for ui = 0 to w.W.warmup_units - 1 do
    ignore (run_unit t ~ui w.W.units.(ui) plain)
  done

type timed_unit = { ok : bool; raw_ms : float; ms : float  (** scaled *) }

(* Closed loop over the cycle for [seconds] of wall time, stopping only
   at a cycle boundary so that every run covers the same mix. Returns
   the units, last first, and the share of the loop's CPU time spent
   inside calls into the program. *)
let timed_loop t (w : W.t) ~seconds =
  let n = Array.length w.units in
  let c = calibration () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let start = cpu_ns () in
  let units = ref [] and k = ref 0 and inside = ref 0 in
  while now_ns () < deadline || !k mod n <> 0 do
    recalibrate c;
    let ok, dt, ins = run_unit t ~ui:(!k mod n) w.units.(!k mod n) plain in
    units := { ok; raw_ms = ms_of_ns dt; ms = ms_of_ns dt *. c.factor } :: !units;
    inside := !inside + ins;
    incr k
  done;
  (!units, float_of_int !inside /. float_of_int (max 1 (cpu_ns () - start)))

let ok_times f units = List.filter_map (fun u -> if u.ok then Some (f u) else None) units

(* ok units per second of (scaled) unit time *)
let units_per_s f units =
  let total_ms = List.fold_left (fun a u -> a +. f u) 0.0 units in
  float_of_int (List.length (ok_times f units)) /. (total_ms /. 1e3)

let end_to_end name ~seed ~seconds =
  let t = tally name in
  let c = calibration () in
  let setup_times =
    List.init setups (fun _ ->
        calibrate c;
        let t0 = cpu_ns () in
        setup t name ~seed;
        (float_of_int (cpu_ns () - t0) /. 1e9, c.factor))
  in
  let w = W.make name ~seed in
  let units, _ = timed_loop t w ~seconds in
  let raw u = u.raw_ms and scaled u = u.ms in
  let times = ok_times scaled units and raw_times = ok_times raw units in
  Printf.printf
    "workload %s seed %d: %d units, %d ok; unit_ms quantiles over %d ok \
     units\n\
     raw CPU time: units_per_s %.4f, unit_ms.p50 %.3f, unit_ms.p90 %.3f, \
     setup_s %s\n"
    name seed (List.length units) (List.length times) (List.length times)
    (units_per_s raw units) (median raw_times) (quantile raw_times 0.9)
    (String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%.4f" s) setup_times));
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  print_result t
    [
      ("units_per_s", "1/s", units_per_s scaled units);
      ("unit_ms.p50", "ms", median times);
      ("unit_ms.p90", "ms", quantile times 0.9);
      ("setup_s", "s", median (List.map (fun (s, f) -> s *. f) setup_times));
      ( "peak_heap_mb",
        "MB",
        float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0 );
      ("ok_frac", "ratio", float_of_int t.ok /. float_of_int (max 1 t.attempted));
    ]

(* ---- exact counts from the program's own metrics registry ---- *)

module Counts = struct
  type t = {
    sums : (string, float) Hashtbl.t;
    procs : (string, int) Hashtbl.t;  (** executed RPCs by procedure *)
    mutable depth_sum : float;
    mutable depth_n : int;
  }

  let create () =
    {
      sums = Hashtbl.create 32;
      procs = Hashtbl.create 16;
      depth_sum = 0.0;
      depth_n = 0;
    }

  let get c key = Option.value ~default:0.0 (Hashtbl.find_opt c.sums key)
  let add c key v = Hashtbl.replace c.sums key (get c key +. v)

  let counter_total m name =
    List.fold_left (fun a (_, n) -> a + n) 0 (Obs.Metrics.counters_with m name)

  let counters =
    [
      ("net.messages", "net_messages_total");
      ("net.bytes", "net_bytes_total");
      ("rpc.calls", "rpc_server_calls_total");
      ("rpc.retransmits", "rpc_retransmits_total");
      ("rpc.duplicates", "rpc_duplicates_total");
      ("rpc.timeouts", "rpc_timeouts_total");
      ("rpc.budget_retries", "rpc_budget_retries_total");
      ("cache.hits", "cache_hits_total");
      ("cache.misses", "cache_misses_total");
      ("cache.evictions", "cache_evictions_total");
      ("cache.writebacks", "cache_writebacks_total");
      ("cache.writes_averted", "cache_writes_averted_total");
      ("disk.reads", "disk_reads_total");
      ("disk.writes", "disk_writes_total");
      ("snfs.state_transitions", "snfs_state_transitions_total");
      ("snfs.callbacks_sent", "snfs_callbacks_sent_total");
      ("snfs.callbacks_failed", "snfs_callbacks_failed_total");
      ("snfs.cache_mode_transitions", "snfs_cache_mode_transitions_total");
      ("snfs.laundromat_runs", "snfs_laundromat_runs_total");
      ("snfs.reaps", "snfs_clients_reaped_total");
    ]

  (* fold one sub-run's registry in *)
  let absorb c m =
    List.iter
      (fun (key, name) -> add c key (float_of_int (counter_total m name)))
      counters;
    add c "sim.events" (Obs.Metrics.gauge_value m "sim_events_total");
    List.iter
      (fun (labels, n) ->
        let proc = Option.value ~default:"?" (List.assoc_opt "proc" labels) in
        let old = Option.value ~default:0 (Hashtbl.find_opt c.procs proc) in
        Hashtbl.replace c.procs proc (old + n))
      (Obs.Metrics.counters_with m "rpc_server_calls_total");
    let devices =
      List.sort_uniq compare
        (List.map fst
           (Obs.Metrics.counters_with m "disk_reads_total"
           @ Obs.Metrics.counters_with m "disk_writes_total"))
    in
    List.iter
      (fun labels ->
        let h = Obs.Metrics.histogram m ~labels "disk_io_seconds" in
        add c "disk.busy_s"
          (float_of_int (Stats.Histogram.count h) *. Stats.Histogram.mean h))
      devices;
    List.iter
      (fun (_, ts) ->
        List.iter
          (fun (_, depth) ->
            c.depth_sum <- c.depth_sum +. depth;
            c.depth_n <- c.depth_n + 1)
          (Stats.Timeseries.to_list ts))
      (Obs.Metrics.series m "sim_event_queue_depth")

  let mean_depth c =
    if c.depth_n = 0 then 1
    else int_of_float (Float.round (c.depth_sum /. float_of_int c.depth_n))

  let proc_mix c =
    Hashtbl.fold (fun p n acc -> (p, n) :: acc) c.procs [] |> List.sort compare

  let proc c p = Option.value ~default:0 (Hashtbl.find_opt c.procs p)
end

(* ---- traced run: per-layer metrics ---- *)

type pass = {
  cpu_ns : int;
  inside_ns : int;
  minor_words : float;
  major_collections : int;
  vnode : Vtrace.t option;  (** a traced pass's spans *)
}

let run_pass t units f =
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = cpu_ns () in
  let inside = ref 0 in
  Array.iteri
    (fun ui subs ->
      let _, _, ins = run_unit t ~ui subs f in
      inside := !inside + ins)
    units;
  {
    cpu_ns = cpu_ns () - t0;
    inside_ns = !inside;
    minor_words = Gc.minor_words () -. minor0;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - major0;
    vnode = None;
  }

(* the pass whose CPU time is the median *)
let median_pass passes =
  let a = Array.of_list passes in
  Array.sort (fun p q -> compare p.cpu_ns q.cpu_ns) a;
  a.(Array.length a / 2)

(* An andrew unit with the program's observability on, against the same
   unit plain: the price of the program's own tracing and metrics. *)
let observe_ratio t ~seed =
  let andrew = W.make "andrew" ~seed in
  let seed = (List.hd andrew.units.(0)).W.seed in
  let timed ?observe () =
    let t0 = cpu_ns () in
    let models = List.map plain (W.andrew_unit ?observe seed) in
    (float_of_int (cpu_ns () - t0), models)
  in
  let rounds = 2 in
  let plain_ns = ref 0.0 and observed_ns = ref 0.0 in
  for _ = 1 to rounds do
    let p, plain_models = timed () in
    let o, observed_models = timed ~observe:true () in
    if plain_models <> observed_models then
      incorrect t "andrew seed %Ld: observability changed the model outputs"
        seed;
    plain_ns := !plain_ns +. p;
    observed_ns := !observed_ns +. o
  done;
  !observed_ns /. !plain_ns

let traced name ~seed ~seconds =
  let t = tally name in
  let w = W.make name ~seed in
  let units = Array.sub w.units 0 w.traced_units in
  let n_units = float_of_int (Array.length units) in
  let start = now_ns () in
  (* warm-up, which also records the reference outcomes *)
  ignore (run_pass t units plain);
  (* exact counts: a fresh registry per sub-run *)
  let counts = Counts.create () in
  ignore
    (run_pass t units (fun sub ->
         let m = Obs.Metrics.create () in
         let model = Obs.Metrics.with_metrics m sub.W.plain in
         Counts.absorb counts m;
         model));
  (* timing: plain and traced passes alternate *)
  let vt = Vtrace.create () in
  let traced_pass () =
    Vtrace.reset vt;
    let p = run_pass t units (fun sub -> sub.W.traced vt) in
    Vtrace.finish vt;
    { p with vnode = Some (Vtrace.copy vt) }
  in
  let deadline = start + int_of_float (seconds *. 0.6 *. 1e9) in
  let rec alternate k plains traceds =
    let plains = run_pass t units plain :: plains in
    let traceds = traced_pass () :: traceds in
    if k < 3 || (now_ns () < deadline && k < 15) then
      alternate (k + 1) plains traceds
    else (plains, traceds)
  in
  let plains, traceds = alternate 1 [] [] in
  let p = median_pass plains and tp = median_pass traceds in
  let observe_ratio = observe_ratio t ~seed in
  (* per unit *)
  let per_unit v = v /. n_units in
  let c key = per_unit (Counts.get counts key) in
  let events = c "sim.events" and rpcs = c "rpc.calls" in
  let plain_unit_ns = per_unit (float_of_int p.cpu_ns) in
  let traced_unit_ms = per_unit (ms_of_ns tp.cpu_ns) in
  let model_sim_s =
    Hashtbl.fold
      (fun (ui, _) o acc ->
        match o with
        | Done m when ui >= 0 && ui < Array.length units -> acc +. m.W.sim_s
        | Done _ | Aborted _ -> acc)
      t.reference 0.0
  in
  (* the layer replay budget *)
  let eventq_ns = Budget.eventq ~depth:(Counts.mean_depth counts) in
  let xdr_ns_per_rpc = Budget.xdr ~mix:(Counts.proc_mix counts) in
  let hits = c "cache.hits" and misses = c "cache.misses" in
  let writebacks = c "cache.writebacks" in
  let cache_ns =
    Budget.cache ~hits:(int_of_float hits) ~misses:(int_of_float misses)
      ~writebacks:(int_of_float writebacks)
      ~evictions:(int_of_float (c "cache.evictions"))
  in
  let state_table_ns = Budget.state_table () in
  let state_table_ops =
    per_unit (float_of_int (Counts.proc counts "open" + Counts.proc counts "close"))
  in
  let budget_eventq = 2.0 *. events *. eventq_ns /. 1e6 in
  let budget_xdr = rpcs *. xdr_ns_per_rpc /. 1e6 in
  let budget_cache = (hits +. misses +. writebacks) *. cache_ns /. 1e6 in
  let budget_state_table = state_table_ops *. state_table_ns /. 1e6 in
  let spans = Option.value tp.vnode ~default:vt in
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) spans.phases []
  |> List.sort compare
  |> List.iter (fun (name, (n, ns)) ->
         Printf.printf "phase %-20s %6.0f spans per unit %12.3f ms per unit\n"
           name
           (per_unit (float_of_int n))
           (per_unit (ms_of_ns ns)));
  (* getattr self time is reported with the other operations': sort and
     clients make no getattr calls, and a time that is zero on every run
     carries no signal *)
  let self op = spans.self_ns.(op) in
  let vfs =
    List.concat
      (List.init Vtrace.n_ops (fun op ->
           let name = Vtrace.op_names.(op) in
           ( Printf.sprintf "vfs.%s.calls" name,
             "count",
             per_unit (float_of_int spans.calls.(op)) )
           ::
           (if op = Vtrace.getattr then []
            else
              [
                ( Printf.sprintf "vfs.%s.self_ms" name,
                  "ms",
                  per_unit
                    (ms_of_ns
                       (if op = Vtrace.other then self op + self Vtrace.getattr
                        else self op)) );
              ])))
  in
  let layer =
    [
      ("sim.events", "count", events);
      ("sim.events_per_s", "1/s", events /. (plain_unit_ns /. 1e9));
      ("sim.ns_per_event", "ns", plain_unit_ns /. events);
      ("sim.gc_minor_words_per_event", "words", p.minor_words /. (events *. n_units));
      ("sim.gc_major_collections", "count", per_unit (float_of_int p.major_collections));
      ("sim.eventq.ns_per_op", "ns", eventq_ns);
      ("xdr.msgs", "count", 2.0 *. rpcs);
      ("xdr.ns_per_msg", "ns", xdr_ns_per_rpc /. 2.0);
      ("net.messages", "count", c "net.messages");
      ("net.bytes", "bytes", c "net.bytes");
      ("rpc.calls", "count", rpcs);
      ("rpc.host_us_per_call", "us", plain_unit_ns /. 1e3 /. rpcs);
      ("rpc.retransmits", "count", c "rpc.retransmits");
      ("rpc.duplicates", "count", c "rpc.duplicates");
      ("rpc.timeouts", "count", c "rpc.timeouts");
      ("rpc.budget_retries", "count", c "rpc.budget_retries");
      ("cache.hits", "count", hits);
      ("cache.misses", "count", misses);
      ("cache.hit_ratio", "ratio", hits /. Float.max 1.0 (hits +. misses));
      ("cache.evictions", "count", c "cache.evictions");
      ("cache.writebacks", "count", writebacks);
      ("cache.writes_averted", "count", c "cache.writes_averted");
      ("cache.ns_per_op", "ns", cache_ns);
      ("disk.reads", "count", c "disk.reads");
      ("disk.writes", "count", c "disk.writes");
      ("disk.busy_s", "sim-s", c "disk.busy_s");
    ]
    @ vfs
    @ [
        ("vfs.outside_ms", "ms", per_unit (ms_of_ns spans.outside_ns));
        ("snfs.state_transitions", "count", c "snfs.state_transitions");
        ("snfs.callbacks_sent", "count", c "snfs.callbacks_sent");
        ("snfs.callbacks_failed", "count", c "snfs.callbacks_failed");
        ("snfs.cache_mode_transitions", "count", c "snfs.cache_mode_transitions");
        ("snfs.laundromat_runs", "count", c "snfs.laundromat_runs");
        ("snfs.reaps", "count", c "snfs.reaps");
        ("state_table.ns_per_op", "ns", state_table_ns);
        ("obs.observe_ratio", "ratio", observe_ratio);
        ("bench.trace_overhead", "ratio", float_of_int tp.cpu_ns /. float_of_int p.cpu_ns);
        ("harness_frac", "ratio", 1.0 -. (float_of_int p.inside_ns /. float_of_int p.cpu_ns));
        ("budget.unit_ms", "ms", traced_unit_ms);
        ("budget.eventq_ms", "ms", budget_eventq);
        ("budget.xdr_ms", "ms", budget_xdr);
        ("budget.cache_ms", "ms", budget_cache);
        ("budget.state_table_ms", "ms", budget_state_table);
        ( "budget.residual_ms",
          "ms",
          traced_unit_ms -. budget_eventq -. budget_xdr -. budget_cache
          -. budget_state_table );
        ("model.sim_s", "sim-s", per_unit model_sim_s);
        ("model.rpcs", "count", rpcs);
      ]
  in
  Printf.printf
    "workload %s seed %d: traced pass of %d units; %d plain and %d traced \
     passes, medians\n"
    name seed (Array.length units) (List.length plains) (List.length traceds);
  print_result t layer

(* ---- sensitivity self-check ---- *)

(* The metrics must see program work, not harness work: making the
   program do more (observability on) or less (a quarter of the
   clients) must move units_per_s far beyond its bound, and the harness
   must take a small share of the wall time. *)
let self_check ~bound ~seconds =
  let rate (w : W.t) =
    let t = tally w.name in
    ignore (run_unit t ~ui:0 w.units.(0) plain);
    let units, inside = timed_loop t w ~seconds in
    (units_per_s (fun u -> u.ms) units, 1.0 -. inside, t.correct && t.unexpected = 0)
  in
  (* two andrew seeds, so that an observed cycle stays a few seconds *)
  let andrew = W.make "andrew" ~seed:1 in
  let andrew = { andrew with units = Array.sub andrew.units 0 2 } in
  let observed =
    {
      andrew with
      units =
        Array.map
          (fun subs -> W.andrew_unit ~observe:true (List.hd subs).W.seed)
          andrew.units;
    }
  in
  let plain_rate, harness_frac, ok1 = rate andrew in
  let observed_rate, _, ok2 = rate observed in
  let full_rate, _, ok3 = rate (W.make "clients" ~seed:1) in
  let quarter_rate, _, ok4 =
    rate (W.make ~clients:(W.default_clients / 4) "clients" ~seed:1)
  in
  let need = 1.0 +. (3.0 *. bound) in
  let checks =
    [
      ( "andrew plain / observability on",
        plain_rate /. observed_rate,
        plain_rate /. observed_rate >= need );
      ( Printf.sprintf "clients %d / clients %d" (W.default_clients / 4)
          W.default_clients,
        quarter_rate /. full_rate,
        quarter_rate /. full_rate >= need );
      (* the calibration loop before each unit is most of it *)
      ("harness_frac (andrew)", harness_frac, harness_frac < 0.1);
      ("runs correct", 1.0, ok1 && ok2 && ok3 && ok4);
    ]
  in
  List.iter
    (fun (name, v, pass) ->
      Printf.printf "%-36s %10.4f  %s\n" name v (if pass then "ok" else "FAIL"))
    checks;
  Printf.printf "units_per_s ratios must reach %.2f (1 + 3 x bound %.2f)\n" need
    bound;
  if List.for_all (fun (_, _, pass) -> pass) checks then 0 else 1

let () =
  Printexc.register_printer (function
    | Localfs.Error e -> Some ("Localfs.Error " ^ Localfs.error_to_string e)
    | _ -> None);
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and check = ref false and bound = ref 0.1 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W one of andrew, sort, clients, crash");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S timed seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--self-check", Arg.Set check, " run the sensitivity self-check");
      ("--bound", Arg.Set_float bound, "B units_per_s bound for --self-check");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe: host-cost benchmark of the simulator";
  let seconds = float_of_int (max 1 !seconds) in
  if !check then exit (self_check ~bound:!bound ~seconds:(Float.min seconds 3.0))
  else if not (List.mem !workload W.names) then begin
    prerr_endline ("bench.exe: unknown workload " ^ !workload);
    exit 2
  end
  else if !trace = 1 then traced !workload ~seed:!seed ~seconds
  else end_to_end !workload ~seed:!seed ~seconds
