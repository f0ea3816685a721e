let run ?trace ?metrics ?(sample_interval = 5.0) f =
  let go () =
    (* the engine is created only after the registry is installed, so
       creation-time instruments (engine queue depth, resource polls)
       land in the registry *)
    let engine = Sim.Engine.create () in
    (match Obs.Metrics.installed () with
    | None -> ()
    | Some m ->
        if not (Obs.Metrics.sampling_active m) then
          Obs.Metrics.start_sampling m ~origin:(Sim.Engine.now engine)
            ~interval:sample_interval;
        let rec tick () =
          Sim.Engine.sleep engine sample_interval;
          Obs.Metrics.sample m ~now:(Sim.Engine.now engine);
          tick ()
        in
        Sim.Engine.spawn engine ~name:"metrics.sampler" tick);
    let result = ref None in
    Sim.Engine.spawn engine ~name:"experiment" (fun () ->
        result := Some (f engine);
        Sim.Engine.stop engine);
    Sim.Engine.run engine;
    match !result with
    | Some v -> v
    | None -> failwith "Driver.run: experiment did not complete"
  in
  let go =
    match metrics with
    | None -> go
    | Some m -> (
        (* don't reinstall (and then uninstall) a registry the caller
           already has installed around a larger scope *)
        match Obs.Metrics.installed () with
        | Some m' when m' == m -> go
        | Some _ | None -> fun () -> Obs.Metrics.with_metrics m go)
  in
  match trace with
  | None -> go ()
  | Some tr -> Obs.Trace.with_tracer tr go
