(* Command-line driver: regenerate any of the paper's tables and
   figures, or run individual benchmarks with custom parameters. *)

open Cmdliner

let protocol_of_string s =
  match List.assoc_opt s Experiments.Stack.presets with
  | Some p -> Ok p
  | None -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))

let protocol_conv =
  Arg.conv
    ( protocol_of_string,
      fun fmt p ->
        Format.pp_print_string fmt (Experiments.Stack.protocol_name p) )

let protocol_arg =
  let doc =
    "File system protocol: local, nfs, nfs-fixed (no invalidate-on-close \
     bug), snfs, snfs-dc (delayed close), rfs, kent (block granularity)."
  in
  Arg.(
    value
    & opt protocol_conv (Experiments.Stack.default Experiments.Stack.Snfs)
    & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

(* ---- table command ---- *)

let known_tables =
  [
    ("5-1", Experiments.Andrew_exp.table_5_1);
    ("5-2", Experiments.Andrew_exp.table_5_2);
    ("5-3", Experiments.Sort_exp.table_5_3);
    ("5-4", Experiments.Sort_exp.table_5_4);
    ("5-5", Experiments.Sort_exp.table_5_5);
    ("5-6", Experiments.Sort_exp.table_5_6);
  ]

let table_cmd =
  let id =
    let doc = "Table to regenerate: 5-1, 5-2, 5-3, 5-4, 5-5, or 5-6." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TABLE" ~doc)
  in
  let run id =
    match List.assoc_opt id known_tables with
    | Some f ->
        print_string (f ());
        Ok ()
    | None -> Error (Printf.sprintf "unknown table %S" id)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate one of the paper's tables.")
    Term.(term_result' (const run $ id))

let figures_cmd =
  let run () =
    print_string (Experiments.Andrew_exp.figures_5_1_and_5_2 ())
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate Figures 5-1 and 5-2.")
    Term.(const run $ const ())

let all_cmd =
  let run () =
    List.iter (fun (_, f) -> print_string (f ())) known_tables;
    print_string (Experiments.Andrew_exp.figures_5_1_and_5_2 ());
    print_string (Experiments.Sort_exp.reread_check ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure.")
    Term.(const run $ const ())

(* ---- single benchmark runs ---- *)

let update_arg =
  let doc = "Disable the periodic /etc/update write-back daemon." in
  Arg.(value & flag & info [ "no-update" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the run to $(docv); load it \
     in ui.perfetto.dev or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let latency_arg =
  let doc = "Print the per-procedure RPC round-trip latency table." in
  Arg.(value & flag & info [ "latency-table" ] ~doc)

let metrics_arg =
  let doc =
    "Export the run's metrics registry to $(docv) (format chosen by \
     $(b,--metrics-format))."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let metrics_format_arg =
  let doc =
    "Metrics export format: prom (Prometheus text exposition, \
     point-in-time) or csv (sampled time series)."
  in
  Arg.(
    value
    & opt (enum [ ("prom", `Prom); ("csv", `Csv) ]) `Prom
    & info [ "metrics-format" ] ~docv:"FMT" ~doc)

let report_arg =
  let doc =
    "Print a plain-text flight report (counters, gauges and histograms, \
     RPC round-trip latencies included) after the run."
  in
  Arg.(value & flag & info [ "report" ] ~doc)

let with_observability ~trace_file ~latency_table ~metrics_file ~metrics_format
    ~report f =
  (* open the outputs before the (possibly long) run so a bad path fails
     in milliseconds, not after the whole simulation *)
  let open_sink path =
    match open_out path with
    | oc -> (path, oc)
    | exception Sys_error msg ->
        Printf.eprintf "snfs_sim: cannot write output file: %s\n" msg;
        exit 1
  in
  let sink = Option.map open_sink trace_file in
  let msink = Option.map open_sink metrics_file in
  let tracer = Option.map (fun _ -> Obs.Trace.create ()) sink in
  let metrics =
    if Option.is_some msink || report || latency_table then
      Some (Obs.Metrics.create ())
    else None
  in
  let write_outputs () =
    (match (tracer, sink) with
    | Some tr, Some (path, oc) ->
        output_string oc (Obs.Chrome.to_string tr);
        close_out oc;
        Printf.printf "trace: %d events -> %s\n" (Obs.Trace.count tr) path
    | _ -> ());
    match (metrics, msink) with
    | Some m, Some (path, oc) ->
        output_string oc
          (match metrics_format with
          | `Prom -> Obs.Metrics.to_prometheus m
          | `Csv -> Obs.Metrics.to_csv m);
        close_out oc;
        Printf.printf "metrics: %s -> %s\n"
          (match metrics_format with `Prom -> "prometheus" | `Csv -> "csv")
          path
    | _ -> ()
  in
  (* an aborted run still leaves its trace and metrics, the evidence of
     how it got there *)
  (match f ?trace:tracer ?metrics () with
  | () -> write_outputs ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      write_outputs ();
      Printexc.raise_with_backtrace e bt);
  match metrics with
  | Some m ->
      if report then print_string (Obs.Metrics.report m);
      if latency_table then print_string (Netsim.Rpc.latency_table m)
  | None -> ()

let andrew_cmd, andrew_term =
  let tmp_arg =
    let doc = "Where /tmp lives: local or remote." in
    Arg.(
      value
      & opt
          (enum
             [
               ("local", Experiments.Testbed.Tmp_local);
               ("remote", Experiments.Testbed.Tmp_remote);
             ])
          Experiments.Testbed.Tmp_remote
      & info [ "tmp" ] ~docv:"WHERE" ~doc)
  in
  let run protocol tmp no_update trace_file latency_table metrics_file
      metrics_format report =
    with_observability ~trace_file ~latency_table ~metrics_file ~metrics_format
      ~report
    @@ fun ?trace ?metrics () ->
    let phases, counts =
      Experiments.Driver.run ?trace ?metrics (fun engine ->
          let tb =
            Experiments.Testbed.create engine ~protocol ~tmp
              ~update_interval:(if no_update then None else Some 30.0)
              ()
          in
          Experiments.Testbed.andrew tb Workload.Andrew.default_config)
    in
    Printf.printf
      "Andrew (%s): MakeDir %.1f  Copy %.1f  ScanDir %.1f  ReadAll %.1f  \
       Make %.1f  Total %.1f\n"
      (Experiments.Stack.protocol_name protocol)
      phases.Workload.Andrew.makedir phases.Workload.Andrew.copy
      phases.Workload.Andrew.scandir phases.Workload.Andrew.readall
      phases.Workload.Andrew.make
      (Workload.Andrew.total phases);
    print_string (Experiments.Report.counts counts)
  in
  let term =
    Term.(
      const run $ protocol_arg $ tmp_arg $ update_arg $ trace_arg
      $ latency_arg $ metrics_arg $ metrics_format_arg $ report_arg)
  in
  (Cmd.v (Cmd.info "andrew" ~doc:"Run the Andrew benchmark once.") term, term)

let sort_cmd =
  let size_arg =
    let doc = "Input size in kilobytes." in
    Arg.(value & opt int 2816 & info [ "input-kb" ] ~docv:"KB" ~doc)
  in
  let run protocol input_kb no_update trace_file latency_table metrics_file
      metrics_format report =
    with_observability ~trace_file ~latency_table ~metrics_file ~metrics_format
      ~report
    @@ fun ?trace ?metrics () ->
    let r =
      Experiments.Sort_exp.run_sort ?trace ?metrics ~protocol
        ~update:(if no_update then None else Some 30.0)
        ~input_kb
        ~label:(Experiments.Stack.protocol_name protocol)
        ()
    in
    Printf.printf
      "sort %d kB on %s: %.1f s (temp written %d kB, client CPU busy %.1f s)\n"
      input_kb r.Experiments.Sort_exp.label r.Experiments.Sort_exp.elapsed
      (r.Experiments.Sort_exp.temp_bytes / 1024)
      r.Experiments.Sort_exp.client_busy;
    print_string (Experiments.Report.counts r.Experiments.Sort_exp.counts)
  in
  Cmd.v
    (Cmd.info "sort" ~doc:"Run the external-sort benchmark once.")
    Term.(
      const run $ protocol_arg $ size_arg $ update_arg $ trace_arg
      $ latency_arg $ metrics_arg $ metrics_format_arg $ report_arg)

let sharing_cmd =
  let run () = print_string (Experiments.Sharing_exp.table ()) in
  Cmd.v
    (Cmd.info "sharing"
       ~doc:
         "Run the shared-database extension experiment (concurrent           write-sharing, all protocols).")
    Term.(const run $ const ())

let trace_cmd =
  let run () = print_string (Experiments.Trace_exp.table ()) in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a realistic trace-style operation mix under every protocol.")
    Term.(const run $ const ())

let ablations_cmd =
  let run () =
    print_string (Experiments.Ablation_exp.table ());
    print_string (Experiments.Ablation_exp.write_back_policy_table ())
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:"Run the design-choice ablations on the Andrew benchmark.")
    Term.(const run $ const ())

let campaign_cmd =
  let jobs_arg =
    let doc =
      "Run the campaign's configurations on $(docv) OCaml domains. \
       Results (and their order) are byte-identical to --jobs 1; only \
       the wall-clock time changes."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run jobs =
    if jobs < 1 then Error "jobs must be >= 1"
    else begin
      let runs = Experiments.Campaign.run ~jobs (Experiments.Campaign.default ()) in
      print_string (Experiments.Campaign.table runs);
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run the standard campaign (every protocol stack and design \
          variant, one Andrew run each), optionally fanned out over \
          domains with --jobs.")
    Term.(term_result' (const run $ jobs_arg))

(* ---- offline trace analysis ---- *)

let read_whole_file path =
  match open_in_bin path with
  | exception Sys_error msg ->
      Printf.eprintf "snfs_sim: cannot read trace file: %s\n" msg;
      exit 1
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let analyze_files files =
  match
    List.map
      (fun path ->
        let label = Filename.remove_extension (Filename.basename path) in
        Obs.Analyze.of_chrome ~label (read_whole_file path))
      files
  with
  | runs ->
      print_string (Obs.Analyze.report runs);
      Ok ()
  | exception Obs.Json.Error msg ->
      Error (Printf.sprintf "malformed trace: %s" msg)

let analyze_cmd =
  let files_arg =
    let doc =
      "Chrome trace-event JSON files (as written by $(b,--trace)) to \
       analyze; one report section per file."
    in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE" ~doc)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Reconstruct per-operation causal trees from trace files and \
          report the critical-path decomposition, callback-storm profile, \
          and per-protocol consistency tax.")
    Term.(term_result' (const analyze_files $ files_arg))

let crash_cmd =
  let seed_arg =
    let doc = "Fault-schedule seed (the whole run is a pure function of it)." in
    Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let crash_protocol_arg =
    let doc =
      "Protocol to run the crash schedule on: nfs, snfs, rfs, kent, or all."
    in
    Arg.(value & opt string "all" & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)
  in
  let run proto seed trace_file latency_table metrics_file metrics_format
      report =
    let protocols =
      match proto with
      | "all" -> Ok Experiments.Crash_exp.all_protocols
      | s -> (
          match
            List.find_opt
              (fun p -> Experiments.Crash_exp.protocol_name p = s)
              Experiments.Crash_exp.all_protocols
          with
          | Some k -> Ok [ k ]
          | None -> Error (Printf.sprintf "unknown protocol %S" s))
    in
    match protocols with
    | Error _ as e -> e
    | Ok protocols ->
        List.iter print_endline
          (Experiments.Crashplan.describe
             (Experiments.Crashplan.generate ~seed ()));
        (* when the run is not fully traced, keep a bounded flight ring so
           an oracle failure still leaves a post-mortem trace behind *)
        if trace_file = None then Obs.Flight.arm ();
        let verdicts = ref [] in
        (with_observability ~trace_file ~latency_table ~metrics_file
           ~metrics_format ~report
        @@ fun ?trace ?metrics () ->
        List.iter
          (fun protocol ->
            verdicts :=
              Experiments.Crash_exp.run ?trace ?metrics ~protocol ~seed ()
              :: !verdicts)
          protocols);
        let verdicts = List.rev !verdicts in
        print_string (Experiments.Crash_exp.table verdicts);
        (match Obs.Flight.last () with
        | Some (reason, json) ->
            let path = "crash-flight.json" in
            let oc = open_out path in
            output_string oc json;
            close_out oc;
            Printf.printf "flight recorder (%s) -> %s\n" reason path
        | None -> ());
        Obs.Flight.disarm ();
        if List.for_all (fun v -> v.Experiments.Crash_exp.ok) verdicts then
          Ok ()
        else Error "crash campaign failed"
  in
  let term =
    Term.(
      term_result'
        (const run $ crash_protocol_arg $ seed_arg $ trace_arg $ latency_arg
       $ metrics_arg $ metrics_format_arg $ report_arg))
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Run the deterministic crash campaign (server crash mid-Andrew, \
          client crashes without close, partition that heals) and verify \
          the survivors' data.")
    term

let scaling_cmd =
  let run () = print_string (Experiments.Scaling_exp.table ()) in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Run the client-scaling extension experiment (N clients, one server).")
    Term.(const run $ const ())

let main =
  (* andrew is the default command: `snfs_sim --trace out.json` traces
     one Andrew run without naming a subcommand *)
  Cmd.group ~default:andrew_term
    (Cmd.info "snfs_sim" ~version:"1.0"
       ~doc:
         "Spritely NFS reproduction: regenerate the tables and figures of \
          Srinivasan & Mogul, SOSP 1989, from a discrete-event simulation.")
    [ table_cmd; figures_cmd; all_cmd; andrew_cmd; sort_cmd; campaign_cmd; crash_cmd; scaling_cmd; ablations_cmd; trace_cmd; sharing_cmd; analyze_cmd ]

(* An aborted simulation explains itself: a process failure prints the
   backtrace inside the failed process, which the re-raise out of the
   engine would otherwise replace. The exit code stays cmdliner's
   internal-error code. *)
let () =
  Printexc.record_backtrace true;
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception e ->
        let bt =
          match e with
          | Sim.Engine.Process_failure (_, _, inner) -> inner
          | _ -> Printexc.get_raw_backtrace ()
        in
        Printf.eprintf "snfs_sim: internal error, uncaught exception:\n  %s\n%s%!"
          (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error)
