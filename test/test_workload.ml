(* Tests for the workload generators: the synthetic source tree, the
   Andrew benchmark phases, the external sort, and the reread
   microbenchmark — all over the local file system, where the expected
   I/O is easy to reason about. *)

open Harness

let make_ctx e =
  let net = Netsim.Net.create e () in
  let host = Netsim.Net.Host.create net "client" in
  let disk = Diskm.Disk.create e "disk" in
  let lfs = Localfs.create e ~name:"fs" ~disk ~cache_blocks:4096 () in
  let mounts = Vfs.Mount.create () in
  Vfs.Mount.mount mounts ~at:"/" (Vfs.Local_mount.make lfs);
  let ctx = Workload.App.make ~mounts ~host in
  List.iter (fun p -> Vfs.Fileio.mkdir mounts p) [ "/data"; "/tmp"; "/local" ];
  ctx

(* ---- file tree ---- *)

let test_plan_deterministic () =
  let a = Workload.File_tree.plan Workload.File_tree.default ~root:"/data/src" in
  let b = Workload.File_tree.plan Workload.File_tree.default ~root:"/data/src" in
  Alcotest.(check bool) "same layout" true
    (a.Workload.File_tree.files = b.Workload.File_tree.files)

let test_plan_shape () =
  let t = Workload.File_tree.plan Workload.File_tree.default ~root:"/r" in
  (* the default approximates the paper's input: ~70 files, ~200 kB *)
  let files = List.length t.Workload.File_tree.files in
  let bytes =
    List.fold_left (fun a (_, n) -> a + n) 0 t.Workload.File_tree.files
  in
  Alcotest.(check bool)
    (Printf.sprintf "file count %d in [60,90]" files)
    true
    (files >= 60 && files <= 90);
  Alcotest.(check bool)
    (Printf.sprintf "total bytes %d in [150k,300k]" bytes)
    true
    (bytes >= 150_000 && bytes <= 300_000);
  Alcotest.(check int) "17-ish compiled sources" 16
    (List.length t.Workload.File_tree.c_files);
  Alcotest.(check int) "12 headers" 12
    (List.length t.Workload.File_tree.header_files);
  (* every c file is in the files list *)
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " listed") true
        (List.mem_assoc name t.Workload.File_tree.files))
    t.Workload.File_tree.c_files

let test_populate () =
  run_sim (fun e ->
      let ctx = make_ctx e in
      let t = Workload.File_tree.plan Workload.File_tree.default ~root:"/data/src" in
      Workload.File_tree.populate ctx t;
      List.iter
        (fun (name, bytes) ->
          let attrs =
            Vfs.Fileio.stat ctx.Workload.App.mounts ("/data/src/" ^ name)
          in
          Alcotest.(check int) (name ^ " size") bytes attrs.Localfs.size)
        t.Workload.File_tree.files)

(* ---- andrew ---- *)

let small_andrew =
  {
    Workload.Andrew.default_config with
    tree =
      {
        Workload.File_tree.default with
        dirs = 2;
        files_per_dir = 4;
        c_files_per_dir = 2;
        headers = 4;
      };
  }

let test_andrew_runs () =
  run_sim (fun e ->
      let ctx = make_ctx e in
      let tree = Workload.Andrew.setup ctx small_andrew in
      let p = Workload.Andrew.run ctx small_andrew tree in
      (* all phases take positive time and the run is self-consistent *)
      Alcotest.(check bool) "makedir > 0" true (p.Workload.Andrew.makedir > 0.0);
      Alcotest.(check bool) "copy > 0" true (p.Workload.Andrew.copy > 0.0);
      Alcotest.(check bool) "scandir > 0" true (p.Workload.Andrew.scandir > 0.0);
      Alcotest.(check bool) "readall > 0" true (p.Workload.Andrew.readall > 0.0);
      Alcotest.(check bool) "make > 0" true (p.Workload.Andrew.make > 0.0);
      Alcotest.(check (float 1e-6)) "total = sum"
        (p.Workload.Andrew.makedir +. p.Workload.Andrew.copy
        +. p.Workload.Andrew.scandir +. p.Workload.Andrew.readall
        +. p.Workload.Andrew.make)
        (Workload.Andrew.total p);
      (* the copy phase produced the full target tree *)
      List.iter
        (fun (name, bytes) ->
          let attrs =
            Vfs.Fileio.stat ctx.Workload.App.mounts ("/data/dst/" ^ name)
          in
          Alcotest.(check int) ("copied " ^ name) bytes attrs.Localfs.size)
        tree.Workload.File_tree.files;
      (* the make phase produced objects for every .c and the program *)
      List.iter
        (fun (name, _) ->
          let obj = "/data/dst/" ^ Filename.remove_extension name ^ ".o" in
          Alcotest.(check bool) (obj ^ " exists") true
            (Vfs.Fileio.exists ctx.Workload.App.mounts obj))
        tree.Workload.File_tree.c_files;
      Alcotest.(check bool) "a.out exists" true
        (Vfs.Fileio.exists ctx.Workload.App.mounts "/data/dst/a.out");
      (* compiler temporaries were deleted *)
      let leftovers =
        Vfs.Fileio.readdir ctx.Workload.App.mounts "/tmp"
        |> List.filter (fun n -> Filename.check_suffix n ".tmp")
      in
      Alcotest.(check (list string)) "no temp leftovers" [] leftovers)

(* ---- sort ---- *)

let sort_config input_kb =
  {
    Workload.Sort_workload.input_bytes = input_kb * 1024;
    input_path = "/local/in";
    output_path = "/local/out";
    tmp_dir = "/tmp";
  }

let test_sort_output_and_cleanup () =
  run_sim (fun e ->
      let ctx = make_ctx e in
      let config = sort_config 512 in
      Workload.Sort_workload.setup ctx config;
      let r = Workload.Sort_workload.run ctx config in
      Alcotest.(check bool) "elapsed > 0" true
        (r.Workload.Sort_workload.elapsed > 0.0);
      (* output has the input's size *)
      let out = Vfs.Fileio.stat ctx.Workload.App.mounts "/local/out" in
      Alcotest.(check int) "output size" (512 * 1024) out.Localfs.size;
      (* every temporary was deleted *)
      let leftovers = Vfs.Fileio.readdir ctx.Workload.App.mounts "/tmp" in
      Alcotest.(check (list string)) "no temp leftovers" [] leftovers)

let test_sort_temp_grows_superlinearly () =
  (* the paper's Table 5-3: temporary traffic grows faster than the
     input because of multi-pass merging *)
  run_sim (fun e ->
      let ctx = make_ctx e in
      let small = sort_config 281 in
      Workload.Sort_workload.setup ctx small;
      let r_small = Workload.Sort_workload.run ctx small in
      let big = sort_config 2816 in
      Workload.Sort_workload.setup ctx big;
      let r_big = Workload.Sort_workload.run ctx big in
      let ratio_small =
        float_of_int r_small.Workload.Sort_workload.temp_bytes_written
        /. float_of_int (281 * 1024)
      in
      let ratio_big =
        float_of_int r_big.Workload.Sort_workload.temp_bytes_written
        /. float_of_int (2816 * 1024)
      in
      Alcotest.(check bool)
        (Printf.sprintf "temp ratio grows (%.2f -> %.2f)" ratio_small ratio_big)
        true (ratio_big > ratio_small))

(* ---- reread ---- *)

let test_reread_local () =
  run_sim (fun e ->
      let ctx = make_ctx e in
      let r = Workload.Reread.run ctx in
      Alcotest.(check bool) "write cost positive" true
        (r.Workload.Reread.write_close >= 0.0);
      (* on a local fs with a big cache, rereading is nearly free *)
      Alcotest.(check bool) "reread cheap" true
        (r.Workload.Reread.reread_same <= r.Workload.Reread.write_close +. 0.1))

(* ---- trace ---- *)

let test_trace_generation_deterministic () =
  let a = Workload.Trace.generate () in
  let b = Workload.Trace.generate () in
  Alcotest.(check bool) "same ops" true (a = b);
  Alcotest.(check int) "requested length" 400 (List.length a)

let test_trace_mix () =
  let ops = Workload.Trace.generate () in
  let temps =
    List.length
      (List.filter (function Workload.Trace.Temp _ -> true | _ -> false) ops)
  in
  let reads =
    List.length
      (List.filter
         (function Workload.Trace.Read_whole _ -> true | _ -> false)
         ops)
  in
  let frac_temps = float_of_int temps /. 400.0 in
  Alcotest.(check bool)
    (Printf.sprintf "temp fraction %.2f near 0.15" frac_temps)
    true
    (frac_temps > 0.08 && frac_temps < 0.25);
  Alcotest.(check bool) "reads dominate" true (reads > 150)

let test_trace_replay () =
  run_sim (fun e ->
      let ctx = make_ctx e in
      Workload.Trace.setup ctx;
      let ops = Workload.Trace.generate () in
      let r = Workload.Trace.replay ctx ops in
      Alcotest.(check bool) "elapsed > 0" true (r.Workload.Trace.elapsed > 0.0);
      let total =
        Stats.Histogram.count r.Workload.Trace.read_lat
        + Stats.Histogram.count r.Workload.Trace.write_lat
        + Stats.Histogram.count r.Workload.Trace.stat_lat
        + Stats.Histogram.count r.Workload.Trace.temp_lat
      in
      Alcotest.(check int) "every op recorded" 400 total;
      (* all temporaries were deleted *)
      let leftovers =
        Vfs.Fileio.readdir ctx.Workload.App.mounts "/data/trace"
        |> List.filter (fun n -> String.length n >= 3 && String.sub n 0 3 = "tmp")
      in
      Alcotest.(check (list string)) "no temp leftovers" [] leftovers)

(* ---- app ---- *)

let test_think_occupies_cpu () =
  run_sim (fun e ->
      let ctx = make_ctx e in
      let t0 = Sim.Engine.now e in
      Workload.App.think ctx 2.5;
      Alcotest.(check (float 1e-9)) "time advanced" 2.5 (Sim.Engine.now e -. t0);
      let busy = Sim.Resource.busy_time (Netsim.Net.Host.cpu ctx.Workload.App.host) in
      Alcotest.(check (float 1e-9)) "cpu charged" 2.5 busy)

let test_timed () =
  run_sim (fun e ->
      let ctx = make_ctx e in
      let elapsed, v =
        Workload.App.timed ctx (fun () ->
            Sim.Engine.sleep e 1.25;
            42)
      in
      Alcotest.(check (float 1e-9)) "elapsed" 1.25 elapsed;
      Alcotest.(check int) "result" 42 v)

let () =
  Alcotest.run "workload"
    [
      ( "file tree",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "shape" `Quick test_plan_shape;
          Alcotest.test_case "populate" `Quick test_populate;
        ] );
      ("andrew", [ Alcotest.test_case "full run" `Quick test_andrew_runs ]);
      ( "sort",
        [
          Alcotest.test_case "output and cleanup" `Quick
            test_sort_output_and_cleanup;
          Alcotest.test_case "temp superlinear" `Quick
            test_sort_temp_grows_superlinearly;
        ] );
      ("reread", [ Alcotest.test_case "local" `Quick test_reread_local ]);
      ( "trace",
        [
          Alcotest.test_case "deterministic" `Quick
            test_trace_generation_deterministic;
          Alcotest.test_case "mix" `Quick test_trace_mix;
          Alcotest.test_case "replay" `Quick test_trace_replay;
        ] );
      ( "app",
        [
          Alcotest.test_case "think" `Quick test_think_occupies_cpu;
          Alcotest.test_case "timed" `Quick test_timed;
        ] );
    ]
