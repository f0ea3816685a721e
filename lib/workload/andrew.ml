type config = {
  tree : File_tree.spec;
  src_root : string;
  dst_root : string;
  tmp_dir : string;
}

let default_config =
  {
    tree = File_tree.default;
    src_root = "/data/src";
    dst_root = "/data/dst";
    tmp_dir = "/tmp";
  }

(* The simulated compiler's costs, in seconds of client CPU, calibrated
   once so the local-disk column lands near Table 5-1's *)
let mkdir_cpu = 0.3
let copy_cpu_per_file = 0.12
let scan_cpu_per_entry = 0.13
let read_cpu_per_file = 0.25
let read_cpu_per_kb = 0.02
let compile_cpu_base = 5.5
let compile_cpu_per_kb = 1.0
let headers_per_compile = 10
let temp_bytes_factor = 30.0 (* compiler temporary vs source size *)
let obj_bytes_factor = 12.0 (* .o vs source size *)
let link_cpu = 12.0

type phase_times = {
  makedir : float;
  copy : float;
  scandir : float;
  readall : float;
  make : float;
}

let total p = p.makedir +. p.copy +. p.scandir +. p.readall +. p.make

let setup ctx config =
  let tree = File_tree.plan config.tree ~root:config.src_root in
  File_tree.populate ctx tree;
  tree

let phase_makedir ctx config (tree : File_tree.tree) =
  Vfs.Fileio.mkdir ctx.App.mounts config.dst_root;
  App.think ctx mkdir_cpu;
  List.iter
    (fun d ->
      Vfs.Fileio.mkdir ctx.App.mounts (config.dst_root ^ "/" ^ d);
      App.think ctx mkdir_cpu)
    tree.File_tree.dirs

let phase_copy ctx config (tree : File_tree.tree) =
  List.iter
    (fun (name, _) ->
      App.think ctx copy_cpu_per_file;
      ignore
        (Vfs.Fileio.copy_file ctx.App.mounts
           ~src:(config.src_root ^ "/" ^ name)
           ~dst:(config.dst_root ^ "/" ^ name)))
    tree.File_tree.files

let phase_scandir ctx config (tree : File_tree.tree) =
  (* recursive traversal of the target subtree, stat-ing every entry *)
  let scan_dir path =
    let names = Vfs.Fileio.readdir ctx.App.mounts path in
    App.think ctx scan_cpu_per_entry;
    List.iter
      (fun name ->
        ignore (Vfs.Fileio.stat ctx.App.mounts (path ^ "/" ^ name));
        App.think ctx scan_cpu_per_entry)
      names
  in
  scan_dir config.dst_root;
  List.iter (fun d -> scan_dir (config.dst_root ^ "/" ^ d)) tree.File_tree.dirs

let phase_readall ctx config (tree : File_tree.tree) =
  List.iter
    (fun (name, _) ->
      App.think ctx read_cpu_per_file;
      let bytes = Vfs.Fileio.read_file ctx.App.mounts (config.dst_root ^ "/" ^ name) in
      App.think ctx (read_cpu_per_kb *. (float_of_int bytes /. 1024.)))
    tree.File_tree.files

(* "compile" one module: read the source and some shared headers, burn
   CPU, stage a compiler temporary in /tmp (created, read back, and
   deleted — the short-lived file that Section 5.4 is about), and emit
   the object file into the target tree. [headers] is the tree's
   header files, made an array once per make phase. *)
let compile ctx config headers index (name, bytes) =
  ignore (Vfs.Fileio.read_file ctx.App.mounts (config.dst_root ^ "/" ^ name));
  let nh = Array.length headers in
  for j = 0 to min headers_per_compile nh - 1 do
    let hname, _ = headers.((index + j) mod nh) in
    ignore (Vfs.Fileio.read_file ctx.App.mounts (config.dst_root ^ "/" ^ hname))
  done;
  App.think ctx
    (compile_cpu_base +. (compile_cpu_per_kb *. (float_of_int bytes /. 1024.)));
  let temp = Printf.sprintf "%s/ctm%d.tmp" config.tmp_dir index in
  let temp_bytes = int_of_float (temp_bytes_factor *. float_of_int bytes) in
  Vfs.Fileio.write_file ctx.App.mounts temp ~bytes:temp_bytes;
  ignore (Vfs.Fileio.read_file ctx.App.mounts temp);
  Vfs.Fileio.unlink ctx.App.mounts temp;
  let obj = config.dst_root ^ "/" ^ Filename.remove_extension name ^ ".o" in
  let obj_bytes = int_of_float (obj_bytes_factor *. float_of_int bytes) in
  Vfs.Fileio.write_file ctx.App.mounts obj ~bytes:obj_bytes;
  (obj, obj_bytes)

let phase_make ctx config (tree : File_tree.tree) =
  let headers = Array.of_list tree.File_tree.header_files in
  let objs = List.mapi (compile ctx config headers) tree.File_tree.c_files in
  (* link: read every object, compute, write the program *)
  List.iter (fun (obj, _) -> ignore (Vfs.Fileio.read_file ctx.App.mounts obj)) objs;
  App.think ctx link_cpu;
  let prog_bytes = List.fold_left (fun a (_, n) -> a + n) 0 objs in
  Vfs.Fileio.write_file ctx.App.mounts (config.dst_root ^ "/a.out")
    ~bytes:prog_bytes

let run ctx config tree =
  let makedir, () = App.timed ctx (fun () -> phase_makedir ctx config tree) in
  let copy, () = App.timed ctx (fun () -> phase_copy ctx config tree) in
  let scandir, () = App.timed ctx (fun () -> phase_scandir ctx config tree) in
  let readall, () = App.timed ctx (fun () -> phase_readall ctx config tree) in
  let make, () = App.timed ctx (fun () -> phase_make ctx config tree) in
  { makedir; copy; scandir; readall; make }
