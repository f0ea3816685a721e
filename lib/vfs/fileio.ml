type fd = {
  vn : Fs.vn;
  mode : Fs.open_mode;
  mutable pos : int;
  mutable open_ : bool;
}

let openf mounts path mode =
  let vn = Mount.resolve mounts path in
  vn.Fs.fs.Fs.fs_open vn mode;
  { vn; mode; pos = 0; open_ = false } |> fun fd ->
  fd.open_ <- true;
  fd

let creat mounts path =
  let dir, name = Mount.resolve_parent mounts path in
  let fs = dir.Fs.fs in
  let vn =
    match fs.Fs.lookup ~dir name with
    | vn ->
        (* creat of an existing file truncates it *)
        fs.Fs.fs_open vn Fs.Write_only;
        fs.Fs.setattr vn ~size:0;
        vn
    | exception Localfs.Error Localfs.Noent ->
        let vn = fs.Fs.create ~dir name in
        fs.Fs.fs_open vn Fs.Write_only;
        vn
  in
  { vn; mode = Fs.Write_only; pos = 0; open_ = true }

let check_open fd = if not fd.open_ then invalid_arg "Fileio: fd is closed"

let close fd =
  check_open fd;
  fd.open_ <- false;
  fd.vn.Fs.fs.Fs.fs_close fd.vn fd.mode

let seek fd pos =
  check_open fd;
  if pos < 0 then invalid_arg "Fileio.seek: negative offset";
  fd.pos <- pos

let read fd ~len =
  check_open fd;
  if not (Fs.mode_reads fd.mode) then invalid_arg "Fileio.read: write-only fd";
  let fs = fd.vn.Fs.fs in
  let bs = fs.Fs.block_size in
  let out = ref [] in
  let remaining = ref len in
  let continue_reading = ref true in
  while !remaining > 0 && !continue_reading do
    let index = fd.pos / bs in
    let block_off = fd.pos mod bs in
    let stamp, valid = fs.Fs.read_block fd.vn ~index in
    if valid <= block_off then continue_reading := false (* EOF *)
    else begin
      let take = Int.min (valid - block_off) !remaining in
      out := (stamp, take) :: !out;
      fd.pos <- fd.pos + take;
      remaining := !remaining - take;
      (* a short block means end of file *)
      if valid < bs && !remaining > 0 then continue_reading := false
    end
  done;
  List.rev !out

let read_bytes fd ~len =
  read fd ~len |> List.fold_left (fun acc (_, n) -> acc + n) 0

let write ?stamp fd ~len =
  check_open fd;
  if not (Fs.mode_writes fd.mode) then invalid_arg "Fileio.write: read-only fd";
  let stamp = match stamp with Some s -> s | None -> Stamp.fresh () in
  let fs = fd.vn.Fs.fs in
  let bs = fs.Fs.block_size in
  let remaining = ref len in
  while !remaining > 0 do
    let index = fd.pos / bs in
    let block_off = fd.pos mod bs in
    let take = Int.min (bs - block_off) !remaining in
    (* the block's valid length after this write *)
    let blen = block_off + take in
    fs.Fs.write_block fd.vn ~index ~stamp ~len:blen;
    fd.pos <- fd.pos + take;
    remaining := !remaining - take
  done;
  stamp

let fsync fd =
  check_open fd;
  fd.vn.Fs.fs.Fs.fsync fd.vn

(* ---- conveniences ---- *)

let read_file mounts path =
  let fd = openf mounts path Fs.Read_only in
  let total = ref 0 in
  let continue_reading = ref true in
  while !continue_reading do
    let n = read_bytes fd ~len:65536 in
    total := !total + n;
    if n < 65536 then continue_reading := false
  done;
  close fd;
  !total

let write_file mounts path ~bytes =
  let fd = creat mounts path in
  ignore (write fd ~len:bytes);
  close fd

let copy_file mounts ~src ~dst =
  let input = openf mounts src Fs.Read_only in
  let output = creat mounts dst in
  let bs = input.vn.Fs.fs.Fs.block_size in
  let total = ref 0 in
  let continue_copy = ref true in
  while !continue_copy do
    let n = read_bytes input ~len:bs in
    if n = 0 then continue_copy := false
    else begin
      ignore (write output ~len:n);
      total := !total + n
    end
  done;
  close input;
  close output;
  !total

let unlink mounts path =
  let dir, name = Mount.resolve_parent mounts path in
  dir.Fs.fs.Fs.remove ~dir name;
  Mount.uncache mounts path

let mkdir mounts path =
  let dir, name = Mount.resolve_parent mounts path in
  ignore (dir.Fs.fs.Fs.mkdir ~dir name)

let rmdir mounts path =
  let dir, name = Mount.resolve_parent mounts path in
  dir.Fs.fs.Fs.rmdir ~dir name;
  Mount.uncache mounts path

let rename mounts ~src ~dst =
  let fromdir, fname = Mount.resolve_parent mounts src in
  let todir, tname = Mount.resolve_parent mounts dst in
  if fromdir.Fs.fs != todir.Fs.fs then
    invalid_arg "Fileio.rename: cross-mount rename";
  fromdir.Fs.fs.Fs.rename ~fromdir fname ~todir tname;
  Mount.uncache mounts src;
  Mount.uncache mounts dst

let stat mounts path =
  let vn = Mount.resolve mounts path in
  vn.Fs.fs.Fs.getattr vn

let readdir mounts path =
  let vn = Mount.resolve mounts path in
  vn.Fs.fs.Fs.readdir vn

let exists mounts path =
  match Mount.resolve mounts path with
  | _ -> true
  | exception Localfs.Error Localfs.Noent -> false
