type open_mode = Read_only | Write_only | Read_write

let mode_writes = function
  | Write_only | Read_write -> true
  | Read_only -> false

let mode_reads = function
  | Read_only | Read_write -> true
  | Write_only -> false

type vn = { fs : t; vid : int }

and t = {
  fs_name : string;
  block_size : int;
  root : unit -> vn;
  lookup : dir:vn -> string -> vn;
  create : dir:vn -> string -> vn;
  mkdir : dir:vn -> string -> vn;
  remove : dir:vn -> string -> unit;
  rmdir : dir:vn -> string -> unit;
  rename : fromdir:vn -> string -> todir:vn -> string -> unit;
  readdir : vn -> string list;
  getattr : vn -> Localfs.attrs;
  setattr : vn -> size:int -> unit;
  fs_open : vn -> open_mode -> unit;
  fs_close : vn -> open_mode -> unit;
  read_block : vn -> index:int -> int * int;
  write_block : vn -> index:int -> stamp:int -> len:int -> unit;
  fsync : vn -> unit;
}
