(* Tests for the Unix-like local file system: namespace operations,
   data path, attribute maintenance, and the structural-write
   accounting that Table 5-5 depends on. *)

let run_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e ~name:"test-main" (fun () ->
      result := Some (f e);
      (* daemons (syncers etc.) would keep the queue alive forever *)
      Sim.Engine.stop e);
  Sim.Engine.run e;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation main process did not complete"

(* [run_sim] under a fresh metrics registry, where the disk and cache
   statistics are counted: [f] also gets [total], the run's count so far
   of one registry counter, summed over its labels *)
let counted f =
  let m = Obs.Metrics.create () in
  let total name =
    List.fold_left (fun a (_, n) -> a + n) 0 (Obs.Metrics.counters_with m name)
  in
  Obs.Metrics.with_metrics m (fun () -> run_sim (f total))

let make_fs ?(meta_policy = `Delayed) ?(cache_blocks = 64) e =
  let disk = Diskm.Disk.create e "d0" in
  Localfs.create e ~name:"fs0" ~disk ~cache_blocks ~meta_policy ()

let test_create_lookup () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let ino = Localfs.create_file fs ~dir:root "hello.c" in
      Alcotest.(check int) "lookup finds it" ino
        (Localfs.lookup fs ~dir:root "hello.c");
      let attrs = Localfs.getattr fs ino in
      Alcotest.(check int) "empty" 0 attrs.Localfs.size;
      Alcotest.(check bool) "is file" true (attrs.Localfs.ftype = Localfs.File))

let test_lookup_missing () =
  run_sim (fun e ->
      let fs = make_fs e in
      Alcotest.check_raises "noent" (Localfs.Error Localfs.Noent) (fun () ->
          ignore (Localfs.lookup fs ~dir:(Localfs.root fs) "nope")))

let test_create_duplicate () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      ignore (Localfs.create_file fs ~dir:root "x");
      Alcotest.check_raises "exists" (Localfs.Error Localfs.Exist) (fun () ->
          ignore (Localfs.create_file fs ~dir:root "x")))

let test_mkdir_and_nesting () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let d1 = Localfs.mkdir fs ~dir:root "src" in
      let d2 = Localfs.mkdir fs ~dir:d1 "lib" in
      let f = Localfs.create_file fs ~dir:d2 "deep.c" in
      Alcotest.(check int) "nested lookup" f (Localfs.lookup fs ~dir:d2 "deep.c");
      let attrs = Localfs.getattr fs d1 in
      Alcotest.(check bool) "is dir" true (attrs.Localfs.ftype = Localfs.Dir))

let test_write_read_block () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let ino = Localfs.create_file fs ~dir:root "data" in
      Localfs.write_block fs ino ~index:0 ~stamp:77 ~len:4096 `Delayed;
      Localfs.write_block fs ino ~index:1 ~stamp:78 ~len:100 `Delayed;
      let s0, l0 = Localfs.read_block fs ino ~index:0 in
      let s1, l1 = Localfs.read_block fs ino ~index:1 in
      Alcotest.(check (pair int int)) "block 0" (77, 4096) (s0, l0);
      Alcotest.(check (pair int int)) "block 1" (78, 100) (s1, l1);
      let attrs = Localfs.getattr fs ino in
      Alcotest.(check int) "size" (4096 + 100) attrs.Localfs.size)

let test_read_hole () =
  run_sim (fun e ->
      let fs = make_fs e in
      let ino = Localfs.create_file fs ~dir:(Localfs.root fs) "empty" in
      Alcotest.(check (pair int int))
        "hole" (0, 0)
        (Localfs.read_block fs ino ~index:0))

let test_remove_and_stale () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let ino = Localfs.create_file fs ~dir:root "gone" in
      Localfs.remove fs ~dir:root "gone";
      Alcotest.check_raises "lookup gone" (Localfs.Error Localfs.Noent)
        (fun () -> ignore (Localfs.lookup fs ~dir:root "gone"));
      Alcotest.check_raises "stale handle" (Localfs.Error Localfs.Stale)
        (fun () -> ignore (Localfs.getattr fs ino)))

let test_remove_cancels_delayed_writes () =
  counted (fun total e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let ino = Localfs.create_file fs ~dir:root "tmp" in
      for i = 0 to 9 do
        Localfs.write_block fs ino ~index:i ~stamp:i ~len:4096 `Delayed
      done;
      let data_writes_before = total "disk_writes_total" in
      Localfs.remove fs ~dir:root "tmp";
      (* one syncer tick writes back everything dirty *)
      Localfs.start_syncer fs ~interval:1.0 ();
      Sim.Engine.sleep e 10.0;
      (* the 10 data blocks were never written; only metadata reached
         the disk *)
      Alcotest.(check int)
        "10 writes averted" 10
        (total "cache_writes_averted_total");
      let writes_after = total "disk_writes_total" in
      Alcotest.(check bool)
        (Printf.sprintf "only structural writes (%d -> %d)" data_writes_before
           writes_after)
        true
        (writes_after - data_writes_before < 10))

let test_structural_writes_happen () =
  counted (fun total e ->
      let fs = make_fs ~meta_policy:`Delayed e in
      let root = Localfs.root fs in
      (* create files, write, delete them all, then sync: data writes
         averted but metadata still hits the disk (Table 5-5's point) *)
      for i = 0 to 4 do
        let name = Printf.sprintf "t%d" i in
        let ino = Localfs.create_file fs ~dir:root name in
        Localfs.write_block fs ino ~index:0 ~stamp:i ~len:4096 `Delayed;
        Localfs.remove fs ~dir:root name
      done;
      (* one syncer tick writes back everything dirty *)
      Localfs.start_syncer fs ~interval:1.0 ();
      Sim.Engine.sleep e 10.0;
      Alcotest.(check bool) "structural disk writes happened" true
        (total "disk_writes_total" > 0);
      Alcotest.(check int) "data writes averted" 5
        (total "cache_writes_averted_total"))

let test_sync_meta_policy_writes_through () =
  counted (fun total e ->
      let fs = make_fs ~meta_policy:`Sync e in
      let root = Localfs.root fs in
      let before = total "disk_writes_total" in
      ignore (Localfs.create_file fs ~dir:root "f");
      Alcotest.(check bool) "metadata written synchronously" true
        (total "disk_writes_total" > before))

let test_sync_data_write () =
  counted (fun total e ->
      let fs = make_fs ~meta_policy:`Sync e in
      let ino = Localfs.create_file fs ~dir:(Localfs.root fs) "f" in
      let before = total "disk_writes_total" in
      let t0 = Sim.Engine.now e in
      Localfs.write_block fs ino ~index:0 ~stamp:1 ~len:4096 `Sync;
      (* data + inode both hit the disk before we continue *)
      Alcotest.(check bool) "two disk writes" true
        (total "disk_writes_total" - before >= 2);
      Alcotest.(check bool) "took disk time" true (Sim.Engine.now e > t0))

let test_readdir () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      ignore (Localfs.create_file fs ~dir:root "b");
      ignore (Localfs.create_file fs ~dir:root "a");
      ignore (Localfs.mkdir fs ~dir:root "c");
      Alcotest.(check (list string)) "sorted entries" [ "a"; "b"; "c" ]
        (Localfs.readdir fs ~dir:root))

let test_rename () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let d = Localfs.mkdir fs ~dir:root "sub" in
      let ino = Localfs.create_file fs ~dir:root "old" in
      Localfs.write_block fs ino ~index:0 ~stamp:5 ~len:10 `Delayed;
      Localfs.rename fs ~fromdir:root "old" ~todir:d "new";
      Alcotest.check_raises "old gone" (Localfs.Error Localfs.Noent) (fun () ->
          ignore (Localfs.lookup fs ~dir:root "old"));
      Alcotest.(check int) "same inode" ino (Localfs.lookup fs ~dir:d "new");
      Alcotest.(check (pair int int))
        "data intact" (5, 10)
        (Localfs.read_block fs ino ~index:0))

let test_rename_clobbers () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let a = Localfs.create_file fs ~dir:root "a" in
      let b = Localfs.create_file fs ~dir:root "b" in
      Localfs.rename fs ~fromdir:root "a" ~todir:root "b";
      Alcotest.(check int) "a took b's name" a (Localfs.lookup fs ~dir:root "b");
      Alcotest.check_raises "old b freed" (Localfs.Error Localfs.Stale)
        (fun () -> ignore (Localfs.getattr fs b)))

let test_rmdir () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let d = Localfs.mkdir fs ~dir:root "d" in
      ignore (Localfs.create_file fs ~dir:d "f");
      Alcotest.check_raises "not empty" (Localfs.Error Localfs.Notempty)
        (fun () -> Localfs.rmdir fs ~dir:root "d");
      Localfs.remove fs ~dir:d "f";
      Localfs.rmdir fs ~dir:root "d";
      Alcotest.check_raises "gone" (Localfs.Error Localfs.Noent) (fun () ->
          ignore (Localfs.lookup fs ~dir:root "d")))

let test_truncate () =
  counted (fun total e ->
      let fs = make_fs e in
      let ino = Localfs.create_file fs ~dir:(Localfs.root fs) "f" in
      for i = 0 to 3 do
        Localfs.write_block fs ino ~index:i ~stamp:(i + 1) ~len:4096 `Delayed
      done;
      Localfs.setattr fs ino ~size:0 ();
      let attrs = Localfs.getattr fs ino in
      Alcotest.(check int) "truncated" 0 attrs.Localfs.size;
      Alcotest.(check (pair int int))
        "reads as hole" (0, 0)
        (Localfs.read_block fs ino ~index:0);
      (* the delayed writes were cancelled *)
      Alcotest.(check int)
        "writes averted" 4
        (total "cache_writes_averted_total"))

let test_mtime_updates () =
  run_sim (fun e ->
      let fs = make_fs e in
      let ino = Localfs.create_file fs ~dir:(Localfs.root fs) "f" in
      let t1 = (Localfs.getattr fs ino).Localfs.mtime in
      Sim.Engine.sleep e 5.0;
      Localfs.write_block fs ino ~index:0 ~stamp:1 ~len:1 `Delayed;
      let t2 = (Localfs.getattr fs ino).Localfs.mtime in
      Alcotest.(check bool) "mtime advanced" true (t2 > t1))

let test_dir_data_mismatch () =
  run_sim (fun e ->
      let fs = make_fs e in
      let root = Localfs.root fs in
      let d = Localfs.mkdir fs ~dir:root "d" in
      Alcotest.check_raises "write to dir" (Localfs.Error Localfs.Isdir)
        (fun () -> Localfs.write_block fs d ~index:0 ~stamp:1 ~len:1 `Delayed);
      let f = Localfs.create_file fs ~dir:root "f" in
      Alcotest.check_raises "lookup in file" (Localfs.Error Localfs.Notdir)
        (fun () -> ignore (Localfs.lookup fs ~dir:f "x")))

(* a process that dies of a file-system error says which one *)
let test_error_printer () =
  Alcotest.(check string) "named, not numbered"
    "Localfs.Error(file exists)"
    (Printexc.to_string (Localfs.Error Localfs.Exist))

let () =
  Alcotest.run "localfs"
    [
      ( "namespace",
        [
          Alcotest.test_case "errors print by name" `Quick test_error_printer;
          Alcotest.test_case "create/lookup" `Quick test_create_lookup;
          Alcotest.test_case "lookup missing" `Quick test_lookup_missing;
          Alcotest.test_case "duplicate create" `Quick test_create_duplicate;
          Alcotest.test_case "mkdir nesting" `Quick test_mkdir_and_nesting;
          Alcotest.test_case "readdir" `Quick test_readdir;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "rename clobbers" `Quick test_rename_clobbers;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
          Alcotest.test_case "type mismatches" `Quick test_dir_data_mismatch;
        ] );
      ( "data",
        [
          Alcotest.test_case "write/read block" `Quick test_write_read_block;
          Alcotest.test_case "read hole" `Quick test_read_hole;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "mtime" `Quick test_mtime_updates;
          Alcotest.test_case "sync data write" `Quick test_sync_data_write;
        ] );
      ( "delete and structure",
        [
          Alcotest.test_case "remove + stale" `Quick test_remove_and_stale;
          Alcotest.test_case "remove cancels writes" `Quick
            test_remove_cancels_delayed_writes;
          Alcotest.test_case "structural writes persist" `Quick
            test_structural_writes_happen;
          Alcotest.test_case "sync meta policy" `Quick
            test_sync_meta_policy_writes_through;
        ] );
    ]
