(* A campaign: a list of independent Andrew-benchmark configurations,
   runnable sequentially or fanned out over domains with Sweep. This is
   the shared substance behind `snfs_sim campaign --jobs N`, the
   perfbench andrew workload, and the parallel-determinism tests — all
   three run exactly this code. *)

type config = {
  name : string;
  protocol : Testbed.protocol;
  tmp : Testbed.tmp_placement;
  andrew : Workload.Andrew.config;
}

let seeded ?(tmp = Testbed.Tmp_remote)
    ?(protocol = Testbed.Snfs_proto Snfs.Snfs_client.default_config) ~name
    ~seed () =
  let base = Workload.Andrew.default_config in
  { name; protocol; tmp; andrew = { base with tree = { base.tree with seed } } }

(* The standard campaign: every protocol stack plus the design variants
   the paper compares, over one Andrew run each. Eight configs split
   evenly over two domains, which is what the BENCH campaign point
   measures. *)
let default () =
  List.map
    (fun (name, protocol) -> seeded ~protocol ~name ~seed:1L ())
    Stack.presets
  @ [ seeded ~tmp:Testbed.Tmp_local ~name:"snfs-tmp-local" ~seed:1L () ]

type run = {
  name : string;
  phases : Workload.Andrew.phase_times;
  events : int;
  report : string;
  metrics_csv : string;
  trace_json : string;
}

(* One billion ids per slot: no realistic run mints more, so sibling
   slots' span ids (and minted op ids) can never collide when their
   traces are merged into one file. *)
let slot_id_stride = 1_000_000_000

let run_one ?(observe = false) ?(slot = 0) config =
  let trace =
    if observe then Some (Obs.Trace.create ~id_base:(slot * slot_id_stride) ())
    else None
  in
  let metrics = if observe then Some (Obs.Metrics.create ()) else None in
  let phases, counts, events =
    Driver.run ?trace ?metrics (fun engine ->
        let tb =
          Testbed.create engine ~protocol:config.protocol ~tmp:config.tmp ()
        in
        let ctx = Testbed.ctx tb in
        let tree = Workload.Andrew.setup ctx config.andrew in
        Testbed.drain tb ~horizon:65.0;
        let before = Testbed.rpc_counts tb in
        let phases = Workload.Andrew.run ctx config.andrew tree in
        let counts =
          Stats.Counter.diff (Testbed.rpc_counts tb) before
        in
        (phases, counts, Sim.Engine.events_executed engine))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "%-15s MakeDir %6.1f  Copy %6.1f  ScanDir %6.1f  ReadAll %6.1f  Make \
        %6.1f  Total %7.1f\n"
       config.name phases.Workload.Andrew.makedir phases.Workload.Andrew.copy
       phases.Workload.Andrew.scandir phases.Workload.Andrew.readall
       phases.Workload.Andrew.make
       (Workload.Andrew.total phases));
  List.iter
    (fun (name, n) -> Buffer.add_string buf (Printf.sprintf "  %-10s %6d\n" name n))
    (Stats.Counter.to_list counts);
  {
    name = config.name;
    phases;
    events;
    report = Buffer.contents buf;
    metrics_csv =
      (match metrics with Some m -> Obs.Metrics.to_csv m | None -> "");
    trace_json =
      (match trace with Some t -> Obs.Chrome.to_string t | None -> "");
  }

let run ~jobs ?observe configs =
  Sweep.map ~jobs
    ~f:(fun (slot, c) -> run_one ?observe ~slot c)
    (List.mapi (fun i c -> (i, c)) configs)

let table runs = String.concat "" (List.map (fun r -> r.report) runs)
