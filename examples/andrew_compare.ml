(* Run the Andrew benchmark under every protocol (local disk, NFS,
   "fixed" NFS without the invalidate-on-close bug, SNFS, SNFS with
   delayed close, and RFS) and compare per-phase times.

   Run with:  dune exec examples/andrew_compare.exe *)

(* label, and the Stack preset the command line spells it as *)
let variants =
  [
    ("local disk", "local");
    ("NFS", "nfs");
    ("NFS (bug fixed)", "nfs-fixed");
    ("RFS", "rfs");
    ("Kent blocks", "kent");
    ("SNFS", "snfs");
    ("SNFS (delayed close)", "snfs-dc");
  ]

let () =
  let rows =
    List.map
      (fun (label, preset) ->
        let r =
          Experiments.Campaign.run_one
            {
              Experiments.Campaign.name = label;
              protocol = List.assoc preset Experiments.Stack.presets;
              tmp = Experiments.Testbed.Tmp_remote;
              andrew = Workload.Andrew.default_config;
            }
        in
        let p = r.Experiments.Campaign.phases in
        [
          label;
          Printf.sprintf "%.1f" p.Workload.Andrew.makedir;
          Printf.sprintf "%.1f" p.Workload.Andrew.copy;
          Printf.sprintf "%.1f" p.Workload.Andrew.scandir;
          Printf.sprintf "%.1f" p.Workload.Andrew.readall;
          Printf.sprintf "%.1f" p.Workload.Andrew.make;
          Printf.sprintf "%.1f" (Workload.Andrew.total p);
          string_of_int (Stats.Counter.total r.Experiments.Campaign.counts);
        ])
      variants
  in
  print_string
    (Stats.Table.render
       ~header:
         [ "configuration"; "MakeDir"; "Copy"; "ScanDir"; "ReadAll"; "Make";
           "Total"; "RPCs" ]
       rows);
  print_newline ();
  print_endline
    "Everything is remote-mounted (including /tmp). \"local disk\" runs\n\
     entirely on the client's own disk. The protocols differ only in\n\
     their cache-consistency machinery — which is the paper's point."
