type spec = {
  dirs : int;
  files_per_dir : int;
  c_files_per_dir : int;
  headers : int;
  min_file_bytes : int;
  max_file_bytes : int;
  seed : int64;
}

let default =
  {
    dirs = 4;
    files_per_dir = 15;
    c_files_per_dir = 4;
    headers = 12;
    min_file_bytes = 800;
    max_file_bytes = 5200;
    seed = 0xA11D12EABL;
  }

type tree = {
  spec : spec;
  root : string;
  dirs : string list;
  files : (string * int) list;
  c_files : (string * int) list;
  header_files : (string * int) list;
}

let plan spec ~root =
  let rand = Sim.Rand.create spec.seed in
  let size () =
    spec.min_file_bytes
    + Sim.Rand.int rand (max 1 (spec.max_file_bytes - spec.min_file_bytes))
  in
  let dirs =
    "include" :: List.init spec.dirs (fun i -> Printf.sprintf "dir%d" i)
  in
  let header_files =
    List.init spec.headers (fun i -> (Printf.sprintf "include/h%d.h" i, size ()))
  in
  let per_dir d =
    List.init spec.files_per_dir (fun i ->
        let name =
          if i < spec.c_files_per_dir then Printf.sprintf "%s/f%d.c" d i
          else Printf.sprintf "%s/f%d.txt" d i
        in
        (name, size ()))
  in
  let dir_files =
    List.concat_map per_dir
      (List.filter (fun d -> d <> "include") dirs)
  in
  let files = header_files @ dir_files in
  let c_files =
    List.filter (fun (name, _) -> Filename.check_suffix name ".c") files
  in
  { spec; root; dirs; files; c_files; header_files }

let populate (ctx : App.t) t =
  Vfs.Fileio.mkdir ctx.App.mounts t.root;
  List.iter
    (fun d -> Vfs.Fileio.mkdir ctx.App.mounts (t.root ^ "/" ^ d))
    t.dirs;
  List.iter
    (fun (name, bytes) ->
      Vfs.Fileio.write_file ctx.App.mounts (t.root ^ "/" ^ name) ~bytes)
    t.files
