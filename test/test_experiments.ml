(* Integration tests of the experiment harness itself: the testbed
   layouts, and — crucially — the paper's headline *shape* claims,
   asserted as regression tests so recalibration cannot silently break
   the reproduction. *)

let nfs = Experiments.Testbed.Nfs_proto Nfs.Nfs_client.default_config

let snfs = Experiments.Testbed.Snfs_proto Snfs.Snfs_client.default_config

(* ---- testbed layout ---- *)

let test_testbed_layout_local () =
  Experiments.Driver.run (fun engine ->
      let tb =
        Experiments.Testbed.create engine ~protocol:Experiments.Testbed.Local
          ~tmp:Experiments.Testbed.Tmp_local ()
      in
      let m = (Experiments.Testbed.ctx tb).Workload.App.mounts in
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " exists") true (Vfs.Fileio.exists m p))
        [ "/data"; "/tmp"; "/usr_tmp"; "/local" ];
      Alcotest.(check bool) "no rpc service" true
        (Experiments.Testbed.service tb = None))

let test_testbed_layout_remote () =
  Experiments.Driver.run (fun engine ->
      let tb =
        Experiments.Testbed.create engine ~protocol:snfs
          ~tmp:Experiments.Testbed.Tmp_remote ()
      in
      let m = (Experiments.Testbed.ctx tb).Workload.App.mounts in
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " exists") true (Vfs.Fileio.exists m p))
        [ "/data"; "/tmp"; "/usr_tmp" ];
      (* /data and /tmp share the remote namespace; /local does not *)
      Vfs.Fileio.write_file m "/data/x" ~bytes:10;
      Vfs.Fileio.write_file m "/local/x" ~bytes:20;
      Alcotest.(check int) "remote file" 10 (Vfs.Fileio.stat m "/data/x").Localfs.size;
      Alcotest.(check int) "local file" 20 (Vfs.Fileio.stat m "/local/x").Localfs.size;
      Alcotest.(check bool) "rpc service present" true
        (Experiments.Testbed.service tb <> None))

let test_testbed_tmp_local_split () =
  Experiments.Driver.run (fun engine ->
      let tb =
        Experiments.Testbed.create engine ~protocol:nfs
          ~tmp:Experiments.Testbed.Tmp_local ()
      in
      let m = (Experiments.Testbed.ctx tb).Workload.App.mounts in
      (* /tmp traffic must not generate RPCs in this layout *)
      let rpcs f = Stats.Counter.total (snd (Experiments.Testbed.counting tb f)) in
      Alcotest.(check int) "local /tmp: no RPCs" 0
        (rpcs (fun () -> Vfs.Fileio.write_file m "/tmp/t" ~bytes:40_960));
      (* /data traffic must *)
      Alcotest.(check bool) "remote /data: RPCs" true
        (rpcs (fun () -> Vfs.Fileio.write_file m "/data/d" ~bytes:4_096) > 0))

(* ---- headline shape claims, as regressions ---- *)

let andrew_total protocol tmp =
  let r =
    Experiments.Campaign.run_one
      {
        Experiments.Campaign.name = "t";
        protocol;
        tmp;
        andrew = Workload.Andrew.default_config;
      }
  in
  (Workload.Andrew.total r.Experiments.Campaign.phases, r)

let test_andrew_snfs_beats_nfs () =
  let nfs_total, nfs_r = andrew_total nfs Experiments.Testbed.Tmp_remote in
  let snfs_total, snfs_r = andrew_total snfs Experiments.Testbed.Tmp_remote in
  Alcotest.(check bool)
    (Printf.sprintf "SNFS %.0f < NFS %.0f" snfs_total nfs_total)
    true (snfs_total < nfs_total);
  (* the win is in the right band: paper says 15-20% *)
  let win = (nfs_total -. snfs_total) /. nfs_total in
  Alcotest.(check bool)
    (Printf.sprintf "total win %.0f%% in [10%%, 30%%]" (win *. 100.))
    true
    (win > 0.10 && win < 0.30);
  (* and SNFS moves less data *)
  let data r =
    Stats.Counter.total_of r.Experiments.Campaign.counts Nfs.Wire.data_procs
  in
  Alcotest.(check bool) "fewer data RPCs" true (data snfs_r < data nfs_r)

let test_sort_ordering () =
  let run protocol update =
    (Experiments.Sort_exp.run_sort ~protocol ~update ~input_kb:1408 ~label:"t"
       ())
      .Experiments.Sort_exp.elapsed
  in
  let local = run Experiments.Testbed.Local (Some 30.0) in
  let nfs_t = run nfs (Some 30.0) in
  let snfs_t = run snfs (Some 30.0) in
  (* local < SNFS < NFS, and NFS is at least 1.5x SNFS (paper: ~2x) *)
  Alcotest.(check bool)
    (Printf.sprintf "local %.0f <= SNFS %.0f" local snfs_t)
    true
    (local <= snfs_t +. 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "SNFS %.0f < NFS %.0f" snfs_t nfs_t)
    true (snfs_t < nfs_t);
  Alcotest.(check bool)
    (Printf.sprintf "NFS/SNFS ratio %.2f > 1.5" (nfs_t /. snfs_t))
    true
    (nfs_t /. snfs_t > 1.5);
  (* with update off, SNFS matches local (Table 5-5's point) *)
  let local_off = run Experiments.Testbed.Local None in
  let snfs_off = run snfs None in
  Alcotest.(check bool)
    (Printf.sprintf "update off: SNFS %.0f within 10%% of local %.0f" snfs_off
       local_off)
    true
    (Float.abs (snfs_off -. local_off) /. local_off < 0.10)

let test_sort_write_aversion () =
  let writes protocol update =
    Stats.Counter.get
      (Experiments.Sort_exp.run_sort ~protocol ~update ~input_kb:1408
         ~label:"t" ())
        .Experiments.Sort_exp.counts "write"
  in
  Alcotest.(check int) "SNFS, update off: zero write RPCs" 0 (writes snfs None);
  let nfs_on = writes nfs (Some 30.0) in
  let nfs_off = writes nfs None in
  Alcotest.(check int) "NFS writes unchanged by update" nfs_on nfs_off;
  Alcotest.(check bool) "NFS writes everything" true (nfs_on > 1000)

let test_scaling_snfs_degrades_slower () =
  let nfs1 = Experiments.Scaling_exp.run ~protocol:nfs ~clients:1 () in
  let nfs4 = Experiments.Scaling_exp.run ~protocol:nfs ~clients:4 () in
  let snfs4 = Experiments.Scaling_exp.run ~protocol:snfs ~clients:4 () in
  Alcotest.(check bool) "4 SNFS clients beat 4 NFS clients" true
    (snfs4.Experiments.Scaling_exp.avg_elapsed
    < nfs4.Experiments.Scaling_exp.avg_elapsed);
  (* the paper's strong form: 4 SNFS clients fare no worse than ONE
     NFS client *)
  Alcotest.(check bool)
    (Printf.sprintf "SNFS x4 (%.0f) <= NFS x1 (%.0f) * 1.1"
       snfs4.Experiments.Scaling_exp.avg_elapsed
       nfs1.Experiments.Scaling_exp.avg_elapsed)
    true
    (snfs4.Experiments.Scaling_exp.avg_elapsed
    <= nfs1.Experiments.Scaling_exp.avg_elapsed *. 1.1)

let test_monitor_rows () =
  Experiments.Driver.run ~metrics:(Obs.Metrics.create ()) (fun engine ->
      let tb =
        Experiments.Testbed.create engine ~protocol:snfs
          ~tmp:Experiments.Testbed.Tmp_remote ()
      in
      let service = Option.get (Experiments.Testbed.service tb) in
      let mon =
        Experiments.Monitor.attach engine
          ~host:(Experiments.Testbed.server_host tb)
          ~service ~bin:5.0
      in
      let m = (Experiments.Testbed.ctx tb).Workload.App.mounts in
      Vfs.Fileio.write_file m "/data/f" ~bytes:40_960;
      ignore (Vfs.Fileio.read_file m "/data/f");
      Sim.Engine.sleep engine 20.0;
      let rows = Experiments.Monitor.rows mon ~until:20.0 in
      Alcotest.(check int) "4 bins" 4 (List.length rows);
      List.iter
        (fun row ->
          Alcotest.(check int) "5 columns" 5 (List.length row);
          let util = List.nth row 1 in
          Alcotest.(check bool) "util in [0,1]" true (util >= 0.0 && util <= 1.0))
        rows;
      (* some calls were observed *)
      let total_rate = List.fold_left (fun a r -> a +. List.nth r 2) 0.0 rows in
      Alcotest.(check bool) "calls observed" true (total_rate > 0.0))

let test_report_helpers () =
  Alcotest.(check string) "secs small" "1.23" (Experiments.Report.secs 1.234);
  Alcotest.(check string) "secs mid" "42.3" (Experiments.Report.secs 42.345);
  Alcotest.(check string) "secs big" "234" (Experiments.Report.secs 234.2);
  Alcotest.(check string) "pct" "+25%" (Experiments.Report.pct 0.25);
  Alcotest.(check string) "vs" "5 (paper: 4)"
    (Experiments.Report.vs ~measured:"5" ~paper:"4")

(* ---- exact counts ---- *)

(* The events, server calls and network bytes of one run are exact
   and compiler-independent, so they are pinned as literals: a change
   that only rewires how stacks are built must leave every one of
   them unchanged. A registry holds one engine's [sim_events_total]
   poll at a time, so a run of several engines reports its last. *)
let exact_counts f =
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () -> ignore (f ()));
  let sum name =
    List.fold_left (fun a (_, n) -> a + n) 0 (Obs.Metrics.counters_with m name)
  in
  ( int_of_float (Obs.Metrics.gauge_value m "sim_events_total"),
    sum "rpc_server_calls_total",
    sum "net_bytes_total" )

(* The callback traffic of one run, every counter by name: the SNFS
   callbacks sent by kind, served and failed, the RFS invalidations,
   the Kent recalls and invalidations, and the calls each client
   callback program ([<prog>_cb.<fsid>]) executed. Counters at 0 are
   left out, so each pin lists only the traffic its protocol makes. *)
let callback_counts f =
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () -> ignore (f ()));
  let sum ?(keep = fun _ -> true) name =
    List.fold_left
      (fun a (labels, n) -> if keep labels then a + n else a)
      0
      (Obs.Metrics.counters_with m name)
  in
  let kind k = List.mem ("kind", k) in
  let cb_prog prefix labels =
    match List.assoc_opt "prog" labels with
    | Some prog ->
        String.length prog > String.length prefix
        && String.sub prog 0 (String.length prefix) = prefix
    | None -> false
  in
  [
    ("snfs sent writeback_invalidate",
     sum ~keep:(kind "writeback_invalidate") "snfs_callbacks_sent_total");
    ("snfs sent writeback",
     sum ~keep:(kind "writeback") "snfs_callbacks_sent_total");
    ("snfs sent invalidate",
     sum ~keep:(kind "invalidate") "snfs_callbacks_sent_total");
    ("snfs sent relinquish",
     sum ~keep:(kind "relinquish") "snfs_callbacks_sent_total");
    ("snfs served", sum "snfs_callbacks_served_total");
    ("snfs failed", sum "snfs_callbacks_failed_total");
    ("rfs invalidations sent", sum "rfs_invalidations_sent_total");
    ("rfs invalidations served", sum "rfs_invalidations_served_total");
    ("kent recalls sent", sum "kent_recalls_sent_total");
    ("kent invalidations sent", sum "kent_invalidations_sent_total");
    ("kent callbacks served", sum "kent_callbacks_served_total");
    ("snfs_cb calls", sum ~keep:(cb_prog "snfs_cb.") "rpc_server_calls_total");
    ("rfs_cb calls", sum ~keep:(cb_prog "rfs_cb.") "rpc_server_calls_total");
    ("kent_cb calls", sum ~keep:(cb_prog "kent_cb.") "rpc_server_calls_total");
  ]
  |> List.filter (fun (_, n) -> n <> 0)

let test_exact_counts () =
  let check label counts f =
    Alcotest.(check (triple int int int))
      (label ^ ": events, server calls, net bytes")
      counts (exact_counts f)
  in
  check "SNFS Andrew" (33328, 3973, 1551444) (fun () ->
      Experiments.Campaign.run_one
        {
          Experiments.Campaign.name = "t";
          protocol = snfs;
          tmp = Experiments.Testbed.Tmp_remote;
          andrew = Workload.Andrew.default_config;
        });
  check "scaling NFS x4" (16796, 1848, 4790960) (fun () ->
      Experiments.Scaling_exp.run ~protocol:nfs ~clients:4 ());
  check "scaling SNFS x4" (9644, 1156, 214800) (fun () ->
      Experiments.Scaling_exp.run ~protocol:snfs ~clients:4 ());
  check "sharing table" (1491, 960, 2766684) Experiments.Sharing_exp.table;
  List.iter
    (fun (protocol, counts) ->
      check
        ("crash seed 42 " ^ Experiments.Crash_exp.protocol_name protocol)
        counts
        (fun () -> Experiments.Crash_exp.run ~protocol ~seed:42L ()))
    [
      (Experiments.Crash_exp.Nfs, (41113, 4631, 7825602));
      (Experiments.Crash_exp.Snfs, (32744, 3917, 787264));
      (Experiments.Crash_exp.Rfs, (40243, 4581, 5088804));
      (Experiments.Crash_exp.Kent, (35078, 4131, 831824));
    ];
  let ops =
    Check.Invariant.
      [
        Open (0, 0, Spritely.State_table.Write);
        Open (1, 0, Spritely.State_table.Read);
        Open (2, 1, Spritely.State_table.Write);
        Close (2, 1, Spritely.State_table.Write);
        Close (0, 0, Spritely.State_table.Write);
        Open (2, 0, Spritely.State_table.Read);
        Forget 1;
        Remove 1;
      ]
  in
  List.iter
    (fun (kind, counts) ->
      check
        ("oracle " ^ Experiments.Stack.kind_name kind)
        counts
        (fun () -> Oracle.replay_all kind [ ops ]))
    [
      (Experiments.Stack.Nfs, (204, 21, 36556));
      (Experiments.Stack.Snfs, (307, 35, 38864));
      (Experiments.Stack.Rfs, (300, 33, 38572));
      (Experiments.Stack.Kent, (296, 33, 38500));
    ];
  let check_callbacks label counts f =
    Alcotest.(check (list (pair string int)))
      (label ^ ": callback counters")
      counts (callback_counts f)
  in
  check_callbacks "sharing table" 
    [
      ("snfs sent writeback_invalidate", 1);
      ("snfs served", 1);
      ("rfs invalidations sent", 95);
      ("rfs invalidations served", 95);
      ("kent recalls sent", 55);
      ("kent invalidations sent", 58);
      ("kent callbacks served", 104);
      ("snfs_cb calls", 1);
      ("rfs_cb calls", 95);
      ("kent_cb calls", 104);
    ]
    Experiments.Sharing_exp.table;
  List.iter
    (fun (protocol, counts) ->
      check_callbacks
        ("crash seed 42 " ^ Experiments.Crash_exp.protocol_name protocol)
        counts
        (fun () -> Experiments.Crash_exp.run ~protocol ~seed:42L ()))
    [
      (Experiments.Crash_exp.Nfs, []);
      (Experiments.Crash_exp.Snfs, 
        [
          ("snfs sent writeback", 1);
          ("snfs served", 1);
          ("snfs failed", 1);
          ("snfs_cb calls", 2);
        ] );
      (Experiments.Crash_exp.Rfs, [ ("rfs invalidations sent", 1) ]);
      (Experiments.Crash_exp.Kent, 
        [
          ("kent recalls sent", 8);
          ("kent invalidations sent", 2);
          ("kent callbacks served", 4);
          ("kent_cb calls", 4);
        ] );
    ]

let () =
  Alcotest.run "experiments"
    [
      ( "testbed",
        [
          Alcotest.test_case "local layout" `Quick test_testbed_layout_local;
          Alcotest.test_case "remote layout" `Quick test_testbed_layout_remote;
          Alcotest.test_case "tmp-local split" `Quick test_testbed_tmp_local_split;
        ] );
      ( "shape regressions",
        [
          Alcotest.test_case "Andrew: SNFS beats NFS" `Slow
            test_andrew_snfs_beats_nfs;
          Alcotest.test_case "sort ordering" `Slow test_sort_ordering;
          Alcotest.test_case "sort write aversion" `Slow
            test_sort_write_aversion;
          Alcotest.test_case "scaling degrades slower" `Slow
            test_scaling_snfs_degrades_slower;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "monitor rows" `Quick test_monitor_rows;
          Alcotest.test_case "report helpers" `Quick test_report_helpers;
        ] );
      ( "exact counts",
        [ Alcotest.test_case "events, calls, bytes" `Slow test_exact_counts ] );
    ]
