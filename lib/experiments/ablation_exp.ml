let run_one ~label ~protocol ~name_cache =
  Driver.run (fun engine ->
      let tb =
        Testbed.create engine ~protocol ~tmp:Testbed.Tmp_remote ~name_cache ()
      in
      let phases, counts = Testbed.andrew tb Workload.Andrew.default_config in
      [
        label;
        Report.secs (Workload.Andrew.total phases);
        string_of_int (Stats.Counter.total counts);
        string_of_int (Stats.Counter.get counts Nfs.Wire.(Proc.lookup.name));
        string_of_int (Stats.Counter.get counts Nfs.Wire.(Proc.read.name));
      ])

let table () =
  let preset name = List.assoc name Stack.presets in
  let nfs = preset "nfs" and nfs_fixed = preset "nfs-fixed" in
  let snfs = preset "snfs" and snfs_dc = preset "snfs-dc" in
  let rfs = preset "rfs" in
  let rows =
    [
      run_one ~label:"NFS (measured system)" ~protocol:nfs ~name_cache:false;
      run_one ~label:"NFS, bug fixed" ~protocol:nfs_fixed ~name_cache:false;
      run_one ~label:"NFS + name cache" ~protocol:nfs ~name_cache:true;
      run_one ~label:"RFS (sec 2.5)" ~protocol:rfs ~name_cache:false;
      run_one ~label:"SNFS (the paper's system)" ~protocol:snfs
        ~name_cache:false;
      run_one ~label:"SNFS + delayed close (6.2)" ~protocol:snfs_dc
        ~name_cache:false;
      run_one ~label:"SNFS + name cache" ~protocol:snfs ~name_cache:true;
      run_one ~label:"SNFS + both extensions" ~protocol:snfs_dc
        ~name_cache:true;
    ]
  in
  Report.banner "Ablations: Andrew benchmark, everything remote"
  ^ "\n"
  ^ Stats.Table.render
      ~header:[ "variant"; "total (s)"; "RPCs"; "lookups"; "reads" ]
      rows
  ^ "Section 7 wonders whether the lookup rate \"swamps other file\n\
     system performance differences\" — the name-cache rows answer it.\n"


(* Section 4.2.3: "In the Sprite file system, dirty blocks are written
   back when they reach 30 seconds in age; this is somewhat less
   conservative than the traditional policy." On a temp-heavy workload
   the difference is dramatic: the age policy gives young temporaries
   time to die. *)
let sort_under ~label ~write_back_policy ~update =
  let r =
    Driver.run (fun engine ->
        let tb =
          Testbed.create engine
            ~protocol:(Stack.default Stack.Snfs)
            ~tmp:Testbed.Tmp_remote ~update_interval:update ~write_back_policy
            ()
        in
        Sort_exp.sort tb ~input_kb:2816 ~label)
  in
  [
    label;
    Report.secs r.Sort_exp.elapsed;
    string_of_int (Stats.Counter.get r.Sort_exp.counts Nfs.Wire.(Proc.write.name));
  ]

let write_back_policy_table () =
  Report.banner
    "Write-back policy ablation (sec 4.2.3): SNFS, 2816 kB sort"
  ^ "\n"
  ^ Stats.Table.render
      ~header:[ "policy"; "elapsed (s)"; "write RPCs" ]
      [
        sort_under ~label:"Unix: sync() flushes everything"
          ~write_back_policy:`Unix ~update:(Some 30.0);
        sort_under ~label:"Sprite: write at 30s of age"
          ~write_back_policy:(`Sprite 30.0) ~update:(Some 30.0);
        sort_under ~label:"no write-back daemon" ~write_back_policy:`Unix
          ~update:None;
      ]
  ^ "the age-based policy spares temporaries that die young, closing\n\
     most of the gap to running with no daemon at all -- with the same\n\
     30-second crash-vulnerability bound.\n"
