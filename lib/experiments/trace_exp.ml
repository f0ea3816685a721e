let run_one ~label ~protocol =
  Driver.run (fun engine ->
      let tb = Testbed.create engine ~protocol ~tmp:Testbed.Tmp_remote () in
      let ctx = Testbed.ctx tb in
      Workload.Trace.setup ctx;
      Testbed.drain tb ~horizon:65.0;
      let ops = Workload.Trace.generate () in
      let r, counts =
        Testbed.counting tb (fun () -> Workload.Trace.replay ctx ops)
      in
      (label, r, counts))

let ms v = Printf.sprintf "%.1f" (v *. 1000.0)

let table () =
  let runs =
    [
      run_one ~label:"local" ~protocol:Testbed.Local;
      run_one ~label:"NFS"
        ~protocol:(Testbed.Nfs_proto Nfs.Nfs_client.default_config);
      run_one ~label:"RFS"
        ~protocol:(Testbed.Rfs_proto Rfs.Rfs_client.default_config);
      run_one ~label:"SNFS"
        ~protocol:(Testbed.Snfs_proto Snfs.Snfs_client.default_config);
    ]
  in
  let latency_rows =
    List.concat_map
      (fun (label, r, _) ->
        let row kind (h : Stats.Histogram.t) =
          [
            label ^ " " ^ kind;
            string_of_int (Stats.Histogram.count h);
            ms (Stats.Histogram.mean h);
            ms (Stats.Histogram.percentile h 50.0);
            ms (Stats.Histogram.percentile h 99.0);
            ms (Stats.Histogram.max_value h);
          ]
        in
        [
          row "read" r.Workload.Trace.read_lat;
          row "rewrite" r.Workload.Trace.write_lat;
          row "temp" r.Workload.Trace.temp_lat;
        ])
      runs
  in
  let summary_rows =
    List.map
      (fun (label, (r : Workload.Trace.result), counts) ->
        [
          label;
          Report.secs r.Workload.Trace.elapsed;
          string_of_int (Stats.Counter.total counts);
          string_of_int (Stats.Counter.get counts Nfs.Wire.(Proc.write.name));
          string_of_int (Stats.Counter.get counts Nfs.Wire.(Proc.read.name));
        ])
      runs
  in
  Report.banner
    "Trace-driven mix (extension): 400 ops, 75% reads, 15% temporaries"
  ^ "\n"
  ^ Stats.Table.render
      ~header:[ "protocol"; "elapsed"; "RPCs"; "write RPCs"; "read RPCs" ]
      summary_rows
  ^ "\nper-operation latency (milliseconds):\n"
  ^ Stats.Table.render
      ~header:[ "class"; "n"; "mean"; "p50"; "p99"; "max" ]
      latency_rows
  ^ "write-through shows up in the rewrite/temp tails; SNFS's delayed\n\
     writes keep those classes at local-disk latency.\n"
