(** The generic-file-system (GFS) interface of Section 4.1.

    Every file-system type — the local Unix file system, the NFS
    client, the SNFS client, the RFS client — exports this same set of
    vnode operations; GFS-level code (pathname walking, file
    descriptors, the benchmark workloads) is written against it and
    cannot tell the implementations apart, exactly as in Ultrix.

    A {!vn} ("gnode") names one file within one file system instance;
    implementations keep their per-file state (attribute caches,
    version numbers, cachability flags) in their own tables keyed by
    {!vn.vid}.

    Data is addressed in whole blocks. [read] returns the list of
    (content stamp, valid length) pairs observed, which the consistency
    oracle inspects; workloads usually ignore it. *)

type open_mode = Read_only | Write_only | Read_write

(** Does this open declare write intent (what Sprite's open tracks)? *)
val mode_writes : open_mode -> bool

val mode_reads : open_mode -> bool

type vn = { fs : t; vid : int }

and t = {
  fs_name : string;
  block_size : int;
  root : unit -> vn;
  lookup : dir:vn -> string -> vn;  (** one component; may raise {!Localfs.Error} *)
  create : dir:vn -> string -> vn;
  mkdir : dir:vn -> string -> vn;
  remove : dir:vn -> string -> unit;
  rmdir : dir:vn -> string -> unit;
  rename : fromdir:vn -> string -> todir:vn -> string -> unit;
  readdir : vn -> string list;
  getattr : vn -> Localfs.attrs;
  setattr : vn -> size:int -> unit;
  (* GFS invokes these on every open/close of any file-system type *)
  fs_open : vn -> open_mode -> unit;
  fs_close : vn -> open_mode -> unit;
  read_block : vn -> index:int -> int * int;
  write_block : vn -> index:int -> stamp:int -> len:int -> unit;
  fsync : vn -> unit;
}

