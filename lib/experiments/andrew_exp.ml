(* The paper's five configurations: local; NFS and SNFS each with /tmp
   local and /tmp remote. *)
let paper_configs () =
  List.map
    (fun (name, protocol, tmp) ->
      { Campaign.name; protocol; tmp; andrew = Workload.Andrew.default_config })
    [
      ("local", Testbed.Local, Testbed.Tmp_local);
      ("NFS /tmp local", Stack.default Stack.Nfs, Testbed.Tmp_local);
      ("SNFS /tmp local", Stack.default Stack.Snfs, Testbed.Tmp_local);
      ("NFS /tmp remote", Stack.default Stack.Nfs, Testbed.Tmp_remote);
      ("SNFS /tmp remote", Stack.default Stack.Snfs, Testbed.Tmp_remote);
    ]

let find results name =
  List.find (fun (r : Campaign.run) -> r.name = name) results

(* ---- Table 5-1 ---- *)

let table_5_1 () =
  let results = List.map (fun c -> Campaign.run_one c) (paper_configs ()) in
  let row (r : Campaign.run) =
    let p = r.phases in
    [
      r.name;
      Report.secs p.Workload.Andrew.makedir;
      Report.secs p.Workload.Andrew.copy;
      Report.secs p.Workload.Andrew.scandir;
      Report.secs p.Workload.Andrew.readall;
      Report.secs p.Workload.Andrew.make;
      Report.secs (Workload.Andrew.total p);
    ]
  in
  let t l = Workload.Andrew.total (find results l).phases in
  let ratio a b = (t a -. t b) /. t a in
  let phase_ratio phase a b =
    let pa = phase (find results a).phases
    and pb = phase (find results b).phases in
    (pa -. pb) /. pa
  in
  Report.banner "Table 5-1: Andrew benchmark, elapsed seconds per phase"
  ^ "\n"
  ^ Stats.Table.render
      ~header:[ "configuration"; "MakeDir"; "Copy"; "ScanDir"; "ReadAll"; "Make"; "Total" ]
      (List.map row results)
  ^ Printf.sprintf
      "\n\
       shape checks against the paper (Section 5.2):\n\
      \  SNFS vs NFS, Copy      (/tmp remote): %s faster  (paper: ~25%%)\n\
      \  SNFS vs NFS, Make      (/tmp local):  %s faster  (paper: ~20%%)\n\
      \  SNFS vs NFS, Make      (/tmp remote): %s faster  (paper: ~30%%)\n\
      \  NFS  vs SNFS, ScanDir+ReadAll:        %s faster  (paper: ~5%%)\n\
      \  SNFS vs NFS, Total     (/tmp remote): %s faster  (paper: 15-20%%)\n"
      (Report.pct (phase_ratio (fun p -> p.Workload.Andrew.copy) "NFS /tmp remote" "SNFS /tmp remote"))
      (Report.pct (phase_ratio (fun p -> p.Workload.Andrew.make) "NFS /tmp local" "SNFS /tmp local"))
      (Report.pct (phase_ratio (fun p -> p.Workload.Andrew.make) "NFS /tmp remote" "SNFS /tmp remote"))
      (Report.pct
         (phase_ratio
            (fun p -> p.Workload.Andrew.scandir +. p.Workload.Andrew.readall)
            "SNFS /tmp remote" "NFS /tmp remote"))
      (Report.pct (ratio "NFS /tmp remote" "SNFS /tmp remote"))

(* ---- Table 5-2 ---- *)

let count_rows =
  Nfs.Wire.
    [
      Proc.lookup.name;
      Proc.getattr.name;
      Proc.setattr.name;
      Proc.read.name;
      Proc.write.name;
      Proc.create.name;
      Proc.remove.name;
      Proc.snfs_open.name;
      Proc.close.name;
      Proc.callback.name;
    ]

let rpc_table (results : Campaign.run list) =
  let labels = List.map (fun (r : Campaign.run) -> r.name) results in
  let cells f =
    List.map (fun (r : Campaign.run) -> string_of_int (f r.counts)) results
  in
  let rows =
    List.map
      (fun proc -> proc :: cells (fun c -> Stats.Counter.get c proc))
      count_rows
    @ [
        "other RPCs"
        :: cells (fun c ->
               Stats.Counter.total c - Stats.Counter.total_of c count_rows);
        "data transfer ops"
        :: cells (fun c -> Stats.Counter.total_of c Nfs.Wire.data_procs);
        "Total" :: cells Stats.Counter.total;
      ]
  in
  Stats.Table.render ~header:("operation" :: labels) rows

let table_5_2 () =
  let results =
    List.map
      (fun c -> Campaign.run_one c)
      (List.filter
         (fun (c : Campaign.config) -> c.protocol <> Testbed.Local)
         (paper_configs ()))
  in
  let total name = float_of_int (Stats.Counter.total (find results name).counts) in
  let data name =
    float_of_int
      (Stats.Counter.total_of (find results name).counts Nfs.Wire.data_procs)
  in
  Report.banner "Table 5-2: RPC calls during the Andrew benchmark"
  ^ "\n" ^ rpc_table results
  ^ Printf.sprintf
      "\n\
       shape checks against the paper (Section 5.2):\n\
      \  SNFS total ops vs NFS (/tmp local):  %s   (paper: ~+2%%)\n\
      \  SNFS total ops vs NFS (/tmp remote): %s   (paper: ~-6%%)\n\
      \  SNFS data ops  vs NFS (/tmp remote): %s   (paper: ~-42%%)\n"
      (Report.pct
         ((total "SNFS /tmp local" -. total "NFS /tmp local")
         /. total "NFS /tmp local"))
      (Report.pct
         ((total "SNFS /tmp remote" -. total "NFS /tmp remote")
         /. total "NFS /tmp remote"))
      (Report.pct
         ((data "SNFS /tmp remote" -. data "NFS /tmp remote")
         /. data "NFS /tmp remote"))

(* ---- Figures 5-1 / 5-2 ---- *)

(* Testbed.andrew's method, with the monitor attached between the
   quiesce and the timed run *)
let figure ~title protocol =
  (* the monitor is a registry consumer, so the run needs one installed *)
  Driver.run ~metrics:(Obs.Metrics.create ()) (fun engine ->
      let tb = Testbed.create engine ~protocol ~tmp:Testbed.Tmp_remote () in
      let ctx = Testbed.ctx tb in
      let andrew = Workload.Andrew.default_config in
      let tree = Workload.Andrew.setup ctx andrew in
      Testbed.drain tb ~horizon:65.0;
      let service =
        match Testbed.service tb with
        | Some s -> s
        | None -> invalid_arg "figure: needs a remote protocol"
      in
      let t0 = Sim.Engine.now engine in
      let mon =
        Monitor.attach engine ~host:(Testbed.server_host tb) ~service ~bin:20.0
      in
      let _phases = Workload.Andrew.run ctx andrew tree in
      let until = Sim.Engine.now engine -. t0 in
      let rows = Monitor.rows mon ~until in
      let util_line =
        Stats.Table.sparkline (List.map (fun r -> List.nth r 1) rows)
      in
      let calls_line =
        Stats.Table.sparkline (List.map (fun r -> List.nth r 2) rows)
      in
      Report.banner title ^ "\n"
      ^ Stats.Table.render_series
          ~columns:[ "t(s)"; "cpu util"; "calls/s"; "reads/s"; "writes/s" ]
          rows
      ^ Printf.sprintf "\nutilization: |%s|\ncall rate:   |%s|\n" util_line
          calls_line)

let figures_5_1_and_5_2 () =
  figure ~title:"Figure 5-1: server utilization and call rates, NFS"
    (Stack.default Stack.Nfs)
  ^ "\n"
  ^ figure ~title:"Figure 5-2: server utilization and call rates, SNFS"
      (Stack.default Stack.Snfs)
