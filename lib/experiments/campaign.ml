(* A campaign: a list of independent Andrew-benchmark configurations,
   runnable sequentially or fanned out over domains with Sweep. This is
   the shared substance behind `snfs_sim campaign --jobs N`, Tables 5-1
   and 5-2, the perfbench andrew workload, and the parallel-determinism
   tests — all of them run exactly this code. *)

type config = {
  name : string;
  protocol : Testbed.protocol;
  tmp : Testbed.tmp_placement;
  andrew : Workload.Andrew.config;
}

(* the default Andrew workload over the source tree of seed 1 *)
let seeded ?(tmp = Testbed.Tmp_remote) ~name protocol =
  let base = Workload.Andrew.default_config in
  {
    name;
    protocol;
    tmp;
    andrew = { base with tree = { base.tree with seed = 1L } };
  }

(* The standard campaign: every protocol stack plus the design variants
   the paper compares, over one Andrew run each. Eight configs split
   evenly over two domains ([--jobs 2]); perfbench's andrew workload
   runs the same eight per seed. *)
let default () =
  List.map (fun (name, protocol) -> seeded ~name protocol) Stack.presets
  @ [
      seeded ~tmp:Testbed.Tmp_local ~name:"snfs-tmp-local"
        (Testbed.Snfs_proto Snfs.Snfs_client.default_config);
    ]

type run = {
  name : string;
  phases : Workload.Andrew.phase_times;
  counts : Stats.Counter.t;
  events : int;
  report : string;
  metrics_csv : string;
  trace_json : string;
}

let run_one ?(observe = false) config =
  let trace = if observe then Some (Obs.Trace.create ()) else None in
  let metrics = if observe then Some (Obs.Metrics.create ()) else None in
  let (phases, counts), events =
    Driver.run ?trace ?metrics (fun engine ->
        let tb =
          Testbed.create engine ~protocol:config.protocol ~tmp:config.tmp ()
        in
        let result = Testbed.andrew tb config.andrew in
        (result, Sim.Engine.events_executed engine))
  in
  {
    name = config.name;
    phases;
    counts;
    events;
    report =
      Printf.sprintf
        "%-15s MakeDir %6.1f  Copy %6.1f  ScanDir %6.1f  ReadAll %6.1f  Make \
         %6.1f  Total %7.1f\n"
        config.name phases.Workload.Andrew.makedir phases.Workload.Andrew.copy
        phases.Workload.Andrew.scandir phases.Workload.Andrew.readall
        phases.Workload.Andrew.make
        (Workload.Andrew.total phases)
      ^ Report.counts counts;
    metrics_csv =
      (match metrics with Some m -> Obs.Metrics.to_csv m | None -> "");
    trace_json =
      (match trace with Some t -> Obs.Chrome.to_string t | None -> "");
  }

let run ~jobs configs = Sweep.map ~jobs ~f:(fun c -> run_one c) configs

let table runs = String.concat "" (List.map (fun r -> r.report) runs)
