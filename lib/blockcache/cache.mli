(** File-block buffer cache — the "GFS buffer pool" of the paper
    (Section 4.2.1).

    Blocks are identified by [(file, index)] where [file] is a
    cache-local file identifier (inode number on the server, gnode id on
    a client). Block *contents* are modelled as a stamp: a globally
    unique integer identifying the write that produced the data. This
    lets the consistency tests detect stale reads exactly, without
    simulating byte contents.

    The cache supports the three write policies the paper contrasts:
    - [`Sync]: write through and wait (NFS server semantics);
    - [`Async]: write behind immediately via a daemon, without blocking
      the writer (the NFS client's biod-style behaviour; {!wait_pending}
      is what close calls);
    - [`Delayed]: mark dirty and let the syncer / age policy / eviction
      write it back (local Unix and SNFS client behaviour).

    Delayed blocks of a deleted file can be {!cancel_dirty}-ed, which
    is the "writes averted on temporary files" effect of Section 5.4. *)

type t

(** Where cached blocks come from / go to. Both calls block the calling
    simulation process for the duration of the backing I/O. [write]
    receives the content stamp and the valid length of the block.
    [ctx] is the causal context of the operation the I/O serves
    ({!Obs.Causal.none} for background write-back), so the disk layer
    can tag its spans with the inducing operation. *)
type backend = {
  read_block : ctx:Obs.Causal.t -> file:int -> index:int -> int * int;
      (** (stamp, len) *)
  write_block :
    ctx:Obs.Causal.t -> file:int -> index:int -> stamp:int -> len:int -> unit;
}

val create :
  Sim.Engine.t ->
  name:string ->
  capacity_blocks:int ->
  block_size:int ->
  backend ->
  t

val name : t -> string

(** {2 Data path} *)

(** [read t ~file ~index] returns [(stamp, len)] for the block, fetching
    it from the backend on a miss. Concurrent misses on one block are
    coalesced into a single backend read. [?ctx] tags the hit/miss
    trace instants and any backend fetch with the reading operation's
    causal context. *)
val read : ?ctx:Obs.Causal.t -> t -> file:int -> index:int -> int * int

(** Look without fetching or touching LRU state. *)
val peek : t -> file:int -> index:int -> (int * int) option

(** [write t ~file ~index ~stamp ~len mode] installs new content for
    the block under the given write policy. With [`Sync] the call
    blocks until the backend write completes; with [`Async] it returns
    immediately and the write proceeds in the background; with
    [`Delayed] the block just becomes dirty. [?ctx] charges the
    resulting backend write (immediate or write-behind) to the writing
    operation's causal context. *)
val write :
  ?ctx:Obs.Causal.t -> t -> file:int -> index:int -> stamp:int -> len:int ->
  [ `Sync | `Async | `Delayed ] -> unit

(** {2 Consistency operations} *)

(** Write back all dirty blocks of the file; blocks until done. *)
val flush_file : ?ctx:Obs.Causal.t -> t -> file:int -> unit

(** Write back every dirty block in the cache; blocks until done. *)
val flush_all : t -> unit

(** Block until no [`Async] write-behinds remain in flight for the
    file (what NFS close does). *)
val wait_pending : t -> file:int -> unit

(** Drop all blocks of the file (they must not be dirty — flush or
    cancel first; raises [Invalid_argument] otherwise). *)
val invalidate_file : t -> file:int -> unit

(** Drop dirty blocks of the file *without* writing them back (the file
    was deleted). Returns the number of block writes averted. Clean
    blocks are dropped too. *)
val cancel_dirty : t -> file:int -> int

(** {2 Single-block operations (block-granularity protocols)} *)

(** Write back one block if it is dirty; blocks until clean. *)
val flush_block : ?ctx:Obs.Causal.t -> t -> file:int -> index:int -> unit

(** Drop one block without writing it back, cancelling a pending
    delayed write if there is one. *)
val drop_block : t -> file:int -> index:int -> unit

(** Drop the file's *clean* blocks only, leaving dirty and in-flight
    blocks untouched (an invalidation that must not lose local
    writes). *)
val drop_clean : t -> file:int -> unit

(** Is this particular block dirty (or being written back)? *)
val block_dirty : t -> file:int -> index:int -> bool

(** Number of dirty blocks for the file. *)
val dirty_count : t -> file:int -> int

(** {2 Background write-back} *)

(** Start the periodic syncer (the simulated [/etc/update]): every
    [interval] seconds, write back all blocks that have been dirty for
    at least [min_age] seconds (default 0: flush everything, the
    traditional Unix policy), in (file, index) order. A tick's batch is
    written by at most 4 flusher processes at once, like a client's
    biod daemons: each takes the next block of the batch when its
    previous write-back is done, so the blocks waiting their turn sit
    in the batch list, not in processes of their own. The syncer waits
    for the whole batch before it sleeps again. Call at most once. *)
val start_syncer : t -> ?min_age:float -> interval:float -> unit -> unit

(** {2 Statistics}

    Hits, misses, evictions, backend block writes issued and dirty
    blocks cancelled by delete are counted in the metrics registry, as
    [cache_hits_total], [cache_misses_total], [cache_evictions_total],
    [cache_writebacks_total] and [cache_writes_averted_total] labelled
    with the cache's name. *)
