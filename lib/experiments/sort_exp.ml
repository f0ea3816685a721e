type run_result = {
  label : string;
  elapsed : float;
  temp_bytes : int;
  counts : Stats.Counter.t;
  client_busy : float;
}

let sort_config ~input_kb =
  {
    Workload.Sort_workload.default_config with
    input_bytes = input_kb * 1024;
  }

let sort tb ~input_kb ~label =
  let ctx = Testbed.ctx tb in
  let config = sort_config ~input_kb in
  Workload.Sort_workload.setup ctx config;
  let cpu = Netsim.Net.Host.cpu (Testbed.client_host tb) in
  let busy_before = Sim.Resource.busy_time cpu in
  let result, counts =
    Testbed.counting tb (fun () -> Workload.Sort_workload.run ctx config)
  in
  {
    label;
    elapsed = result.Workload.Sort_workload.elapsed;
    temp_bytes = result.Workload.Sort_workload.temp_bytes_written;
    counts;
    client_busy = Sim.Resource.busy_time cpu -. busy_before;
  }

let run_sort ?trace ?metrics ~protocol ?(update = Some 30.0) ~input_kb ~label
    () =
  Driver.run ?trace ?metrics (fun engine ->
      let tb =
        Testbed.create engine ~protocol ~tmp:Testbed.Tmp_remote
          ~update_interval:update ()
      in
      sort tb ~input_kb ~label)

let protocols () =
  [
    ("local", Testbed.Local);
    ("NFS", Testbed.Nfs_proto Nfs.Nfs_client.default_config);
    ("SNFS", Testbed.Snfs_proto Snfs.Snfs_client.default_config);
  ]

let sizes = [ 281; 1408; 2816 ]

(* paper Table 5-3, elapsed seconds: size -> (local, NFS, SNFS) *)
let paper_5_3 = [ (281, (4., 8., 4.)); (1408, (33., 105., 48.)); (2816, (74., 234., 127.)) ]

let table_of_runs ~title ~update ~paper =
  let rows =
    List.map
      (fun input_kb ->
        let runs =
          List.map
            (fun (label, protocol) ->
              run_sort ~protocol ~update ~input_kb ~label ())
            (protocols ())
        in
        let temp = (List.hd runs).temp_bytes / 1024 in
        let cell label =
          let r = List.find (fun r -> r.label = label) runs in
          (match paper with
          | Some table ->
              let pl, pn, ps = List.assoc input_kb table in
              let p =
                match label with
                | "local" -> pl
                | "NFS" -> pn
                | _ -> ps
              in
              Report.vs ~measured:(Report.secs r.elapsed)
                ~paper:(Report.secs p)
          | None -> Report.secs r.elapsed)
        in
        [
          string_of_int input_kb ^ " k";
          string_of_int temp ^ " k";
          cell "local";
          cell "NFS";
          cell "SNFS";
        ])
      sizes
  in
  Report.banner title ^ "\n"
  ^ Stats.Table.render
      ~header:[ "input"; "temp written"; "local"; "NFS"; "SNFS" ]
      rows

let table_5_3 () =
  table_of_runs
    ~title:"Table 5-3: sort benchmark, elapsed seconds (/usr/tmp on each fs)"
    ~update:(Some 30.0) ~paper:(Some paper_5_3)

let table_5_5 () =
  table_of_runs
    ~title:
      "Table 5-5: sort benchmark with /etc/update disabled (infinite \
       write-delay)"
    ~update:None ~paper:None
  ^ "shape check (Section 5.4): SNFS should match or beat local here,\n\
     because the temporaries die before any write-back happens while\n\
     the local file system still writes structural information.\n"

let ops_row label (r : run_result) =
  let reads = Stats.Counter.get r.counts Nfs.Wire.(Proc.read.name) in
  let writes = Stats.Counter.get r.counts Nfs.Wire.(Proc.write.name) in
  let total = Stats.Counter.total r.counts in
  [
    label;
    string_of_int reads;
    string_of_int writes;
    string_of_int (total - reads - writes);
    string_of_int total;
  ]

let table_5_4 () =
  let input_kb = 2816 in
  let nfs =
    run_sort ~protocol:(Testbed.Nfs_proto Nfs.Nfs_client.default_config)
      ~input_kb ~label:"NFS" ()
  in
  let snfs =
    run_sort ~protocol:(Testbed.Snfs_proto Snfs.Snfs_client.default_config)
      ~input_kb ~label:"SNFS" ()
  in
  Report.banner "Table 5-4: RPC calls for the 2816 kB sort" ^ "\n"
  ^ Stats.Table.render
      ~header:[ "version"; "reads"; "writes"; "others"; "total" ]
      [ ops_row "NFS" nfs; ops_row "SNFS" snfs ]
  ^ Printf.sprintf
      "client CPU utilization: NFS %.0f%%, SNFS %.0f%% (paper: higher for \
       SNFS;\n\
       I/O latency is the NFS bottleneck)\n"
      (100.0 *. nfs.client_busy /. nfs.elapsed)
      (100.0 *. snfs.client_busy /. snfs.elapsed)

let table_5_6 () =
  let input_kb = 2816 in
  let run label protocol update =
    ops_row label (run_sort ~protocol ~update ~input_kb ~label ())
  in
  let nfs = Testbed.Nfs_proto Nfs.Nfs_client.default_config in
  let snfs = Testbed.Snfs_proto Snfs.Snfs_client.default_config in
  Report.banner "Table 5-6: RPC calls for the 2816 kB sort, with and without \
                 /etc/update"
  ^ "\n"
  ^ Stats.Table.render
      ~header:[ "version/update"; "reads"; "writes"; "others"; "total" ]
      [
        run "NFS, update on" nfs (Some 30.0);
        run "NFS, update off" nfs None;
        run "SNFS, update on" snfs (Some 30.0);
        run "SNFS, update off" snfs None;
      ]
  ^ "paper: NFS 1340/1452, 1227/1451; SNFS 67/1441, 65/33 (reads/writes)\n\
     the load-bearing cell: SNFS with update off does almost no writes.\n"

let reread_check () =
  let run label protocol =
    Driver.run (fun engine ->
        let tb =
          Testbed.create engine ~protocol ~tmp:Testbed.Tmp_remote ()
        in
        let ctx = Testbed.ctx tb in
        let r = Workload.Reread.run ctx in
        [
          label;
          Report.secs r.Workload.Reread.write_close;
          Report.secs r.Workload.Reread.reread_same;
          Report.secs r.Workload.Reread.read_other;
        ])
  in
  Report.banner
    "Section 5.3 microbenchmark: write-close, reread same vs other (1 MB)"
  ^ "\n"
  ^ Stats.Table.render
      ~header:[ "protocol"; "write+close"; "reread same"; "read other" ]
      [
        run "NFS" (Testbed.Nfs_proto Nfs.Nfs_client.default_config);
        run "SNFS" (Testbed.Snfs_proto Snfs.Snfs_client.default_config);
      ]
  ^ "paper: under NFS the two reads cost the same (the cache was\n\
     invalidated at close), and both are negligible next to the\n\
     write-through; under SNFS rereading the same file is nearly free.\n"
