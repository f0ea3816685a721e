(** The "system call" layer: file descriptors over the GFS interface.

    This is the API the benchmark workloads program against — open /
    creat / read / write / close plus namespace calls — so a workload
    runs unchanged over the local file system, NFS, SNFS, or RFS,
    exactly as user programs did in the paper's experiments.

    GFS semantics (Section 4.2): every open and close reaches the
    file-system type's [fs_open]/[fs_close] entry points; reads and
    writes are block-structured; [creat] of an existing file truncates
    it. *)

type fd

(** Open an existing file. Raises {!Localfs.Error} on failure. *)
val openf : Mount.t -> string -> Fs.open_mode -> fd

(** Create (or truncate) and open for writing. *)
val creat : Mount.t -> string -> fd

val close : fd -> unit

(** [read fd ~len] reads up to [len] bytes sequentially, returning the
    [(stamp, bytes)] pairs observed per block (short list at EOF). *)
val read : fd -> len:int -> (int * int) list

(** Bytes actually read. *)
val read_bytes : fd -> len:int -> int

(** [write ?stamp fd ~len] writes [len] bytes sequentially. All blocks
    carry [stamp] (default: a fresh one). Returns the stamp used. *)
val write : ?stamp:int -> fd -> len:int -> int

val fsync : fd -> unit

(** Reposition the file offset (absolute). *)
val seek : fd -> int -> unit

(** {2 Whole-file and namespace conveniences} *)

(** Read a whole file sequentially (open, read to EOF, close); returns
    bytes read. *)
val read_file : Mount.t -> string -> int

(** Create/truncate and write [bytes] sequentially, then close. *)
val write_file : Mount.t -> string -> bytes:int -> unit

(** Copy src to dst in block-size chunks. Returns bytes copied. *)
val copy_file : Mount.t -> src:string -> dst:string -> int

val unlink : Mount.t -> string -> unit
val mkdir : Mount.t -> string -> unit
(* snfs-lint: allow interface-drift — test seam: the only way to reach RMDIR *)
val rmdir : Mount.t -> string -> unit

(* snfs-lint: allow interface-drift — test seam: the only way to reach RENAME *)
val rename : Mount.t -> src:string -> dst:string -> unit
val stat : Mount.t -> string -> Localfs.attrs
val readdir : Mount.t -> string -> string list
val exists : Mount.t -> string -> bool
