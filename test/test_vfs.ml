(* Tests for the GFS layer: mount table and path resolution, the file
   descriptor API, and the local-mount adapter. *)

open Harness

let make_local e name =
  let disk = Diskm.Disk.create e (name ^ "-disk") in
  let lfs = Localfs.create e ~name ~disk ~cache_blocks:128 () in
  Vfs.Local_mount.make lfs

(* ---- path handling ---- *)

let test_components () =
  run_sim (fun e ->
      let m = Vfs.Mount.create () in
      Vfs.Mount.mount m ~at:"/" (make_local e "rootfs");
      Vfs.Fileio.mkdir m "/a";
      Vfs.Fileio.write_file m "/a/b" ~bytes:7;
      Alcotest.(check int) "simple" 7 (Vfs.Fileio.stat m "/a/b").Localfs.size;
      Alcotest.(check (list string)) "root" [ "a" ] (Vfs.Fileio.readdir m "/");
      Alcotest.(check int)
        "double slash" 7 (Vfs.Fileio.stat m "/a//b").Localfs.size;
      Alcotest.check_raises "relative rejected"
        (Invalid_argument "Mount: path \"a/b\" is not absolute") (fun () ->
          ignore (Vfs.Fileio.stat m "a/b")))

let test_mount_resolution () =
  run_sim (fun e ->
      let m = Vfs.Mount.create () in
      Vfs.Mount.mount m ~at:"/" (make_local e "rootfs");
      Vfs.Fileio.mkdir m "/a";
      Vfs.Fileio.mkdir m "/a/b";
      Vfs.Fileio.write_file m "/a/b/c.txt" ~bytes:100;
      let attrs = Vfs.Fileio.stat m "/a/b/c.txt" in
      Alcotest.(check int) "size" 100 attrs.Localfs.size)

let test_longest_prefix_mount () =
  run_sim (fun e ->
      let root = make_local e "rootfs" in
      let tmp = make_local e "tmpfs" in
      let m = Vfs.Mount.create () in
      Vfs.Mount.mount m ~at:"/" root;
      Vfs.Mount.mount m ~at:"/tmp" tmp;
      (* files with the same name under each mount stay distinct *)
      Vfs.Fileio.write_file m "/x" ~bytes:11;
      Vfs.Fileio.write_file m "/tmp/x" ~bytes:22;
      Alcotest.(check int) "root file" 11 (Vfs.Fileio.stat m "/x").Localfs.size;
      Alcotest.(check int) "tmp file" 22
        (Vfs.Fileio.stat m "/tmp/x").Localfs.size)

let test_duplicate_mount_rejected () =
  run_sim (fun e ->
      let m = Vfs.Mount.create () in
      Vfs.Mount.mount m ~at:"/" (make_local e "a");
      Alcotest.check_raises "duplicate"
        (Invalid_argument "Mount.mount: / already mounted") (fun () ->
          Vfs.Mount.mount m ~at:"/" (make_local e "b")))

let test_name_cache_reduces_lookups () =
  run_sim (fun e ->
      let disk = Diskm.Disk.create e "d" in
      let lfs = Localfs.create e ~name:"fs" ~disk ~cache_blocks:128 () in
      let lookups = ref 0 in
      (* wrap the local fs to count lookup calls *)
      let inner = Vfs.Local_mount.make lfs in
      let counted =
        {
          inner with
          Vfs.Fs.lookup =
            (fun ~dir name ->
              incr lookups;
              inner.Vfs.Fs.lookup ~dir name);
        }
      in
      let m = Vfs.Mount.create () in
      Vfs.Mount.mount m ~at:"/" counted;
      Vfs.Mount.enable_name_cache m;
      Vfs.Fileio.mkdir m "/deep";
      Vfs.Fileio.mkdir m "/deep/deeper";
      Vfs.Fileio.write_file m "/deep/deeper/f" ~bytes:10;
      (* the first stat populates the cache for the final component *)
      ignore (Vfs.Fileio.stat m "/deep/deeper/f");
      let after_setup = !lookups in
      for _ = 1 to 10 do
        ignore (Vfs.Fileio.stat m "/deep/deeper/f")
      done;
      Alcotest.(check int) "all stats served from the name cache" after_setup
        !lookups;
      (* unlink uncaches the entry *)
      Vfs.Fileio.unlink m "/deep/deeper/f";
      Alcotest.(check bool) "gone" false (Vfs.Fileio.exists m "/deep/deeper/f"))

(* ---- fileio ---- *)

let setup_file e =
  let m = Vfs.Mount.create () in
  Vfs.Mount.mount m ~at:"/" (make_local e "fs");
  m

let test_sequential_write_read () =
  run_sim (fun e ->
      let m = setup_file e in
      let fd = Vfs.Fileio.creat m "/f" in
      let s1 = Vfs.Fileio.write fd ~len:5000 in
      let s2 = Vfs.Fileio.write fd ~len:3000 in
      Vfs.Fileio.close fd;
      Alcotest.(check bool) "distinct stamps" true (s1 <> s2);
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Read_only in
      let all = Vfs.Fileio.read fd ~len:10_000 in
      Vfs.Fileio.close fd;
      let total = List.fold_left (fun a (_, n) -> a + n) 0 all in
      Alcotest.(check int) "bytes" 8000 total;
      (* both stamps observed, in order *)
      let stamps = List.map fst all in
      Alcotest.(check bool) "first stamp present" true (List.mem s1 stamps);
      Alcotest.(check bool) "second stamp present" true (List.mem s2 stamps))

let test_seek_and_offset () =
  run_sim (fun e ->
      let m = setup_file e in
      let fd = Vfs.Fileio.creat m "/f" in
      ignore (Vfs.Fileio.write fd ~len:9000);
      ignore (Vfs.Fileio.write fd ~len:1000);
      Vfs.Fileio.close fd;
      Alcotest.(check int) "second write continues at the offset" 10_000
        (Vfs.Fileio.stat m "/f").Localfs.size;
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Read_only in
      Vfs.Fileio.seek fd 4096;
      let n = Vfs.Fileio.read_bytes fd ~len:100_000 in
      Alcotest.(check int) "read from seek point" (10_000 - 4096) n;
      Vfs.Fileio.close fd)

let test_creat_truncates () =
  run_sim (fun e ->
      let m = setup_file e in
      Vfs.Fileio.write_file m "/f" ~bytes:50_000;
      Alcotest.(check int) "big" 50_000 (Vfs.Fileio.stat m "/f").Localfs.size;
      Vfs.Fileio.write_file m "/f" ~bytes:10;
      Alcotest.(check int) "truncated and rewritten" 10
        (Vfs.Fileio.stat m "/f").Localfs.size)

let test_copy_file () =
  run_sim (fun e ->
      let m = setup_file e in
      Vfs.Fileio.write_file m "/src" ~bytes:20_000;
      let n = Vfs.Fileio.copy_file m ~src:"/src" ~dst:"/dst" in
      Alcotest.(check int) "copied bytes" 20_000 n;
      Alcotest.(check int) "dst size" 20_000 (Vfs.Fileio.stat m "/dst").Localfs.size)

let test_mode_enforcement () =
  run_sim (fun e ->
      let m = setup_file e in
      Vfs.Fileio.write_file m "/f" ~bytes:10;
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Read_only in
      Alcotest.check_raises "write to read-only"
        (Invalid_argument "Fileio.write: read-only fd") (fun () ->
          ignore (Vfs.Fileio.write fd ~len:1));
      Vfs.Fileio.close fd;
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Write_only in
      Alcotest.check_raises "read from write-only"
        (Invalid_argument "Fileio.read: write-only fd") (fun () ->
          ignore (Vfs.Fileio.read fd ~len:1));
      Vfs.Fileio.close fd;
      Alcotest.check_raises "use after close"
        (Invalid_argument "Fileio: fd is closed") (fun () ->
          ignore (Vfs.Fileio.read fd ~len:1)))

(* A minimal hand-built file system that records every GFS entry-point
   call — vnodes must reference their own fs record, so wrapping an
   existing one does not work; we build one from scratch. *)
let spy_fs e calls =
  let disk = Diskm.Disk.create e "spy-disk" in
  let lfs = Localfs.create e ~name:"spyfs" ~disk ~cache_blocks:128 () in
  let rec fs =
    lazy
      (let inner = Vfs.Local_mount.make lfs in
       let redirect (vn : Vfs.Fs.vn) = { vn with Vfs.Fs.fs = Lazy.force fs } in
       {
         inner with
         Vfs.Fs.root = (fun () -> redirect (inner.Vfs.Fs.root ()));
         lookup = (fun ~dir name -> redirect (inner.Vfs.Fs.lookup ~dir name));
         create = (fun ~dir name -> redirect (inner.Vfs.Fs.create ~dir name));
         mkdir = (fun ~dir name -> redirect (inner.Vfs.Fs.mkdir ~dir name));
         fs_open =
           (fun vn mode ->
             calls := `Open mode :: !calls;
             inner.Vfs.Fs.fs_open vn mode);
         fs_close =
           (fun vn mode ->
             calls := `Close mode :: !calls;
             inner.Vfs.Fs.fs_close vn mode);
       })
  in
  Lazy.force fs

let test_open_close_reach_fs () =
  run_sim (fun e ->
      let calls = ref [] in
      let m = Vfs.Mount.create () in
      Vfs.Mount.mount m ~at:"/" (spy_fs e calls);
      let fd = Vfs.Fileio.creat m "/f" in
      Vfs.Fileio.close fd;
      let fd = Vfs.Fileio.openf m "/f" Vfs.Fs.Read_write in
      Vfs.Fileio.close fd;
      let opens =
        List.filter_map (function `Open m -> Some m | `Close _ -> None) !calls
      in
      let closes =
        List.filter_map (function `Close m -> Some m | `Open _ -> None) !calls
      in
      Alcotest.(check int) "every open reached the fs" 2 (List.length opens);
      Alcotest.(check int) "every close reached the fs" 2 (List.length closes);
      Alcotest.(check bool) "creat opened for write" true
        (List.mem Vfs.Fs.Write_only opens);
      Alcotest.(check bool) "modes preserved" true
        (List.mem Vfs.Fs.Read_write closes))

let test_stamp_uniqueness () =
  let stamps = List.init 1000 (fun _ -> Vfs.Stamp.fresh ()) in
  let sorted = List.sort_uniq compare stamps in
  Alcotest.(check int) "all distinct" 1000 (List.length sorted)

let test_modes () =
  Alcotest.(check bool) "ro reads" true (Vfs.Fs.mode_reads Vfs.Fs.Read_only);
  Alcotest.(check bool) "ro no write" false (Vfs.Fs.mode_writes Vfs.Fs.Read_only);
  Alcotest.(check bool) "wo writes" true (Vfs.Fs.mode_writes Vfs.Fs.Write_only);
  Alcotest.(check bool) "rw both" true
    (Vfs.Fs.mode_reads Vfs.Fs.Read_write && Vfs.Fs.mode_writes Vfs.Fs.Read_write)

(* ---- disk model ---- *)

let test_disk_sequential_cheaper () =
  run_sim (fun e ->
      let d = Diskm.Disk.create e "d" in
      let t0 = Sim.Engine.now e in
      for i = 0 to 9 do
        Diskm.Disk.read ~at:i d ~bytes:4096
      done;
      let sequential = Sim.Engine.now e -. t0 in
      let t0 = Sim.Engine.now e in
      for i = 0 to 9 do
        Diskm.Disk.read ~at:(i * 1000) d ~bytes:4096
      done;
      let scattered = Sim.Engine.now e -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "sequential %.4f << scattered %.4f" sequential scattered)
        true
        (sequential *. 3.0 < scattered))

let test_disk_counters () =
  counted (fun total e ->
      let d = Diskm.Disk.create e "d" in
      Diskm.Disk.read d ~bytes:4096;
      Diskm.Disk.write d ~bytes:8192;
      Diskm.Disk.write d ~bytes:100;
      Alcotest.(check int) "reads" 1 (total "disk_reads_total");
      Alcotest.(check int) "writes" 2 (total "disk_writes_total");
      Alcotest.(check int) "bytes read" 4096 (total "disk_bytes_read_total");
      Alcotest.(check int)
        "bytes written" 8292
        (total "disk_bytes_written_total");
      Alcotest.(check bool) "busy time accrued" true (Diskm.Disk.busy_time d > 0.0))

let test_disk_queueing () =
  run_sim (fun e ->
      let d = Diskm.Disk.create e "d" in
      let completions = ref [] in
      for i = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            Diskm.Disk.write d ~bytes:4096;
            completions := (i, Sim.Engine.now e) :: !completions)
      done;
      Sim.Engine.sleep e 1.0;
      (* FIFO service: completion times strictly increase *)
      let times = List.rev_map snd !completions in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "one at a time" true (increasing times))

let () =
  Alcotest.run "vfs"
    [
      ( "mount",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "resolution" `Quick test_mount_resolution;
          Alcotest.test_case "longest prefix" `Quick test_longest_prefix_mount;
          Alcotest.test_case "duplicate rejected" `Quick
            test_duplicate_mount_rejected;
          Alcotest.test_case "name cache" `Quick test_name_cache_reduces_lookups;
        ] );
      ( "fileio",
        [
          Alcotest.test_case "sequential write/read" `Quick
            test_sequential_write_read;
          Alcotest.test_case "seek/offset" `Quick test_seek_and_offset;
          Alcotest.test_case "creat truncates" `Quick test_creat_truncates;
          Alcotest.test_case "copy" `Quick test_copy_file;
          Alcotest.test_case "mode enforcement" `Quick test_mode_enforcement;
          Alcotest.test_case "open/close reach fs" `Quick test_open_close_reach_fs;
          Alcotest.test_case "stamps unique" `Quick test_stamp_uniqueness;
          Alcotest.test_case "modes" `Quick test_modes;
        ] );
      ( "disk",
        [
          Alcotest.test_case "sequential cheaper" `Quick
            test_disk_sequential_cheaper;
          Alcotest.test_case "counters" `Quick test_disk_counters;
          Alcotest.test_case "queueing" `Quick test_disk_queueing;
        ] );
    ]
