type t = {
  util : Stats.Timeseries.t;
  calls : Stats.Timeseries.t;
  reads : Stats.Timeseries.t;
  writes : Stats.Timeseries.t;
}

let attach engine ~host ~service ~bin =
  let m =
    match Obs.Metrics.installed () with
    | Some m -> m
    | None ->
        invalid_arg
          "Monitor.attach: requires an installed Obs.Metrics registry (run \
           the experiment with Driver.run ~metrics)"
  in
  let t =
    {
      util = Stats.Timeseries.create ~bin "cpu-util";
      calls = Stats.Timeseries.create ~bin "calls";
      reads = Stats.Timeseries.create ~bin "reads";
      writes = Stats.Timeseries.create ~bin "writes";
    }
  in
  (* all series are relative to the attach instant *)
  let t0 = Sim.Engine.now engine in
  let prog = Netsim.Rpc.service_prog service in
  let server = Netsim.Net.Host.name (Netsim.Rpc.service_host service) in
  let cpu_name = Sim.Resource.name (Netsim.Net.Host.cpu host) in
  let busy () =
    Obs.Metrics.gauge_value m "sim_resource_busy_seconds"
      ~labels:[ ("resource", cpu_name) ]
  in
  let calls_of proc =
    Obs.Metrics.counter_value m "rpc_server_calls_total"
      ~labels:[ ("host", server); ("prog", prog); ("proc", proc) ]
  in
  (* every proc executed by this service, i.e. this prog on this host
     (callback progs served by clients carry other labels) *)
  let total_calls () =
    List.fold_left
      (fun acc (labels, v) ->
        if List.mem ("host", server) labels && List.mem ("prog", prog) labels
        then acc + v
        else acc)
      0
      (Obs.Metrics.counters_with m "rpc_server_calls_total")
  in
  (* per-bin deltas of the registry's cumulative instruments, attributed
     to the bin that just ended *)
  let rec sample (b0, c0, r0, w0) () =
    Sim.Engine.sleep engine bin;
    let time = Sim.Engine.now engine -. t0 -. (bin /. 2.0) in
    let b = busy ()
    and c = total_calls ()
    and r = calls_of Nfs.Wire.(Proc.read.name)
    and w = calls_of Nfs.Wire.(Proc.write.name) in
    Stats.Timeseries.add t.util ~time (b -. b0);
    Stats.Timeseries.add t.calls ~time (float_of_int (c - c0));
    Stats.Timeseries.add t.reads ~time (float_of_int (r - r0));
    Stats.Timeseries.add t.writes ~time (float_of_int (w - w0));
    sample (b, c, r, w) ()
  in
  Sim.Engine.spawn engine ~name:"monitor.sampler"
    (sample
       (busy (), total_calls (), calls_of Nfs.Wire.(Proc.read.name),
        calls_of Nfs.Wire.(Proc.write.name)));
  t

let rows t ~until =
  let bin = Stats.Timeseries.bin_width t.util in
  let nbins = int_of_float (ceil (until /. bin)) in
  List.init nbins (fun i ->
      [
        float_of_int i *. bin;
        Stats.Timeseries.value t.util i /. bin;
        Stats.Timeseries.rate t.calls i;
        Stats.Timeseries.rate t.reads i;
        Stats.Timeseries.rate t.writes i;
      ])
