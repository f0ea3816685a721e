(** Synthetic source tree for the Andrew benchmark.

    The original benchmark input was ~70 files / ~200 KB of C source in
    a few directories, of which a subset is compiled by the Make phase
    against a set of shared headers. Sizes are drawn deterministically
    from the seed so runs are exactly reproducible. *)

type spec = {
  dirs : int;  (** subdirectories under the source root *)
  files_per_dir : int;
  c_files_per_dir : int;  (** of which this many are .c sources *)
  headers : int;  (** shared header files in an include dir *)
  min_file_bytes : int;
  max_file_bytes : int;
  seed : int64;
}

(** ~70 files, ~200 KB, 17 compiled sources, 12 headers. *)
val default : spec

type tree = {
  spec : spec;
  root : string;  (** absolute path of the source root *)
  dirs : string list;  (** relative directory paths, creation order *)
  files : (string * int) list;  (** (relative path, bytes), all files *)
  c_files : (string * int) list;  (** compiled subset *)
  header_files : (string * int) list;
}

(** Lay out the tree (pure; no I/O). *)
val plan : spec -> root:string -> tree

(** Create the source tree in the file system. *)
val populate : App.t -> tree -> unit
