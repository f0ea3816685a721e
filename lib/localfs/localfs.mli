(** A Unix-like local file system over a simulated disk and buffer
    cache.

    This plays two roles from the paper:
    - the backing store behind the NFS / SNFS / RFS servers (the server
      "simply translates RPC requests into GFS operations on the
      standard Unix local file system", Section 4.1), and
    - the "local disk" configuration in the benchmarks.

    Structure is modelled at block granularity: file data blocks carry
    content stamps; the inode table and directories live in pseudo-files
    that pass through the same buffer cache, so *structural* writes are
    charged realistically — this is why, in Table 5-5, the local-disk
    sort still writes metadata even when all data writes are averted.

    All calls block the calling simulation process for any disk I/O
    they incur. *)

type t

type ino = int

type ftype = File | Dir

type attrs = {
  ino : ino;
  gen : int;  (** generation, for file-handle validity *)
  ftype : ftype;
  size : int;  (** bytes *)
  nlink : int;
  mtime : float;
  ctime : float;
}

type error =
  | Noent  (** no such name *)
  | Exist  (** name already exists *)
  | Notdir
  | Isdir
  | Notempty  (** rmdir of non-empty directory *)
  | Stale  (** inode freed (stale file handle) *)
  | Again  (** transient: the server is in its recovery grace period *)

exception Error of error

val error_to_string : error -> string

(** How metadata (inode, directory) updates reach the disk:
    [`Sync] writes them through immediately (what an NFS server must
    do); [`Delayed] leaves them to the syncer (local Unix policy). *)
type meta_policy = [ `Sync | `Delayed ]

val create :
  Sim.Engine.t ->
  name:string ->
  disk:Diskm.Disk.t ->
  cache_blocks:int ->
  ?meta_policy:meta_policy ->
  unit ->
  t

val name : t -> string

(** Bytes per block, for file data and metadata alike. *)
val block_size : int

(** Start the periodic flusher of delayed writes (the [/etc/update]
    daemon). Optional: experiments disable it for the infinite
    write-delay runs (Table 5-5). *)
val start_syncer : t -> ?min_age:float -> interval:float -> unit -> unit

(** {2 Namespace}

    Every operation takes an optional [?ctx] — the causal context of
    the client operation it serves (see {!Obs.Causal}) — passed down
    to the buffer cache and disk so their trace spans name the
    inducing operation. *)

val root : t -> ino

(** One pathname component, as NFS lookup does. *)
val lookup : ?ctx:Obs.Causal.t -> t -> dir:ino -> string -> ino

val getattr : ?ctx:Obs.Causal.t -> t -> ino -> attrs

(** Truncate / touch. [size] must shrink or extend the file; shrinking
    drops (and cancels writes of) blocks past the new size. *)
val setattr :
  ?ctx:Obs.Causal.t -> t -> ino -> ?size:int -> ?mtime:float -> unit -> unit

val create_file : ?ctx:Obs.Causal.t -> t -> dir:ino -> string -> ino
val mkdir : ?ctx:Obs.Causal.t -> t -> dir:ino -> string -> ino

(** Unlink a file name. Pending delayed writes for the file's data are
    cancelled (they will never be needed). *)
val remove : ?ctx:Obs.Causal.t -> t -> dir:ino -> string -> unit

val rmdir : ?ctx:Obs.Causal.t -> t -> dir:ino -> string -> unit

val rename :
  ?ctx:Obs.Causal.t -> t -> fromdir:ino -> string -> todir:ino -> string -> unit

val readdir : ?ctx:Obs.Causal.t -> t -> dir:ino -> string list

(** {2 Data} *)

(** [read_block t ino ~index] returns [(stamp, valid_len)]. Reading a
    hole yields stamp 0. *)
val read_block : ?ctx:Obs.Causal.t -> t -> ino -> index:int -> int * int

(** [write_block t ino ~index ~stamp ~len policy] writes one block.
    [`Sync] forces data (and, under the [`Sync] metadata policy, the
    inode) to the disk before returning; [`Async] starts the write and
    returns; [`Delayed] leaves the block dirty in the cache. *)
val write_block :
  ?ctx:Obs.Causal.t -> t -> ino -> index:int -> stamp:int -> len:int ->
  [ `Sync | `Async | `Delayed ] -> unit

(** Force the file's dirty data and metadata to disk. *)
val fsync : ?ctx:Obs.Causal.t -> t -> ino -> unit
