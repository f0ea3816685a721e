(* The one way a test runs a simulation: [run_sim] runs a test body as
   the engine's main process, and [counted] runs it under a fresh
   metrics registry. Every suite opens this module. *)

(* [run_sim f] runs [f e] as the main process of a fresh engine [e] and
   returns its result. The run stops when [f] returns: daemons
   (syncers, keepalives etc.) would keep the queue alive forever. *)
let run_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e ~name:"test-main" (fun () ->
      result := Some (f e);
      Sim.Engine.stop e);
  Sim.Engine.run e;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation main process did not complete"

(* [run_sim] under a fresh metrics registry, where caches, clients,
   servers, the network and the disks count their statistics: [f] also
   gets [count], the run's count so far of one registry counter, summed
   over every label set that contains [labels] (default: all of them) *)
let counted f =
  let m = Obs.Metrics.create () in
  let count ?(labels = []) name =
    List.fold_left
      (fun acc (ls, n) ->
        if List.for_all (fun l -> List.mem l ls) labels then acc + n else acc)
      0
      (Obs.Metrics.counters_with m name)
  in
  Obs.Metrics.with_metrics m (fun () -> run_sim (f count))
