(* [ctx] is the causal context of the operation the I/O serves
   ({!Obs.Causal.none} for background write-back), passed through so
   the disk layer can tag its spans with the inducing operation. *)
type backend = {
  read_block : ctx:Obs.Causal.t -> file:int -> index:int -> int * int;
  write_block :
    ctx:Obs.Causal.t -> file:int -> index:int -> stamp:int -> len:int -> unit;
}

(* A block's write state. [Fetching] is a clean block whose contents
   are still on their way from the backend; a write overtakes the
   fetch. [Dirty] dates from [since]; [Redirtied] is a write-back in
   flight that a write landed on, at [since]. *)
type wstate = Fetching | Clean | Dirty | Writing | Redirtied

(* [Doomed]: dropped while a fetch or write-back was in flight, removed
   when it ends. [Gone]: out of the table, its slot kept until nothing
   is in flight on it. *)
type fate = Resident | Doomed | Gone

type pending = { mutable count : int; mutable waiters : (unit -> unit) list }

type t = {
  engine : Sim.Engine.t;
  name : string;
  write_behind_name : string; (* process names, built once *)
  flusher_name : string;
  capacity : int;
  block_size : int;
  backend : backend;
  (* Packed (file, index) keys to slots. [find] runs on every cache
     read and write; a miss returns slot 0. *)
  blocks : int Sim.Inttbl.t;
  file_heads : int Sim.Inttbl.t; (* slot of each file's newest block *)
  mutable count : int;
  (* A block is a slot: its fields and its links live in the arrays
     below, indexed by slot, so inserting, dirtying or relinking a
     block stores ints, floats and constant constructors, and
     allocates nothing. Slot 0 is the head of the circular LRU list
     (its lru_next side is least recently used) and the empty value of
     both tables, in neither of which it is ever stored. A self-loop
     ([lru_next.(s) = s]) means "not linked on that side". The per-file
     chain is a plain doubly-linked list whose head hangs off
     [file_heads]. Free slots are threaded through [fnext], ending at
     0. The arrays start at one slot and grow as they fill (see
     [grow]). *)
  mutable key : int array; (* packed (file, index), see [key] *)
  mutable stamp : int array;
  mutable len : int array;
  mutable state : wstate array;
  mutable since : float array; (* unboxed *)
  mutable fate : fate array;
  (* A slot's handle packs it with its generation, which [free_slot]
     bumps. Whoever holds a block across a call that can block or run
     other processes holds its handle, and acts on the block after the
     call only if [live]: a reused slot is never taken for the block
     that left it. *)
  mutable handle : int array;
  (* By slot, written only on a miss and a wait: the ivar of the fetch
     in flight, from the miss to the fetch's end ([no_fetch] when
     none), and the processes waiting for the write-back in flight.
     Few slots have either, so they are tables, not two more words per
     slot for every array to grow by. *)
  fetch : (int * int) Sim.Ivar.t Sim.Inttbl.t;
  waiters : (unit -> unit) list Sim.Inttbl.t;
  mutable lru_prev : int array;
  mutable lru_next : int array;
  mutable fprev : int array; (* per-file chain, insertion order *)
  mutable fnext : int array;
  mutable free : int;
  no_fetch : (int * int) Sim.Ivar.t;
  pending : pending Sim.Inttbl.t; (* async write-behinds per file *)
  mutable syncer_started : bool;
}

(* Every slot index is in bounds: slots come from the table, a chain,
   the LRU list or a live handle, and the arrays only grow. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let is_dirty t s =
  match t.state.!(s) with
  | Dirty | Writing | Redirtied -> true
  | Fetching | Clean -> false

let create engine ~name ~capacity_blocks ~block_size backend =
  if capacity_blocks <= 0 then invalid_arg "Cache.create: capacity must be > 0";
  let no_fetch = Sim.Ivar.create engine in
  let t =
    {
      engine;
      name;
      write_behind_name = name ^ ".write_behind";
      flusher_name = name ^ ".flusher";
      capacity = capacity_blocks;
      block_size;
      backend;
      blocks = Sim.Inttbl.create ~empty:0;
      file_heads = Sim.Inttbl.create ~empty:0;
      count = 0;
      key = [| -1 |];
      stamp = [| 0 |];
      len = [| 0 |];
      state = [| Clean |];
      since = [| 0.0 |];
      fate = [| Resident |];
      handle = [| 0 |];
      fetch = Sim.Inttbl.create ~empty:no_fetch;
      waiters = Sim.Inttbl.create ~empty:[];
      lru_prev = [| 0 |];
      lru_next = [| 0 |];
      fprev = [| 0 |];
      fnext = [| 0 |];
      free = 0;
      no_fetch;
      pending = Sim.Inttbl.create ~empty:{ count = 0; waiters = [] };
      syncer_started = false;
    }
  in
  Obs.Metrics.register_poll
    ~labels:[ ("cache", name) ]
    "cache_resident_blocks"
    (fun () -> float_of_int t.count);
  Obs.Metrics.register_poll
    ~labels:[ ("cache", name) ]
    "cache_dirty_blocks"
    (fun () ->
      (* a count is order-independent, so the unsorted table walk is
         deterministic *)
      (* snfs-fanout: bounded — capacity_blocks blocks, per metrics sample *)
      Sim.Inttbl.fold
        (fun _ s n -> if is_dirty t s then n + 1 else n)
        t.blocks 0
      |> float_of_int);
  t

let name t = t.name

(* One instant per cache action on this cache's own track. Args carry
   the block's (file, index) address only — never its stamp, which is a
   process-global counter and would break trace determinism across runs
   in one process. *)
let cache_incr t metric =
  if Obs.Metrics.on () then
    Obs.Metrics.incr ~labels:[ ("cache", t.name) ] metric

let cache_event ?(ctx = Obs.Causal.none) t name ~file ~index =
  if Obs.Trace.on () then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"cache" ~name ~track:t.name
      ~args:
        (Obs.Causal.arg ctx
           [ ("file", Obs.Trace.Int file); ("index", Obs.Trace.Int index) ])
      ()

(* ---- slots ---- *)

(* 2^30 slots; the generation takes the bits above *)
let slot_bits = 30

let slot h = h land ((1 lsl slot_bits) - 1)

let live t h = t.handle.!(slot h) = h

(* [a] in a fresh array of [m] slots, the rest [fill]. [Array.blit]
   into an array in the major heap runs [caml_modify] on every
   element, so the int arrays, most of them, get a loop typed at ints,
   which stores plainly. *)
let extend a m fill =
  let a' = Array.make m fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let extend_ints (a : int array) m fill =
  let a' = Array.make m fill in
  for i = 0 to Array.length a - 1 do
    a'.!(i) <- a.!(i)
  done;
  a'

(* Grow the arrays threefold, to no more slots than a full cache needs
   (until it holds a gone block too, when they double), and thread the
   new slots onto the free list. Arrays this large are allocated in
   the major heap, and the ones they replace are garbage there, so a
   larger factor copies and discards less and a smaller one leaves
   fewer slots unused. Of twofold, threefold and fourfold, threefold
   put the fewest words into the major heap on the sort workload,
   which fills its caches, and nearly the fewest on andrew, which
   does not. *)
let grow t =
  let n = Array.length t.key in
  let m =
    if n > t.capacity then 2 * n
    else if 3 * n >= t.capacity then t.capacity + 1
    else 3 * n
  in
  if m > 1 lsl slot_bits then failwith "Cache: out of slots";
  t.key <- extend_ints t.key m (-1);
  t.stamp <- extend_ints t.stamp m 0;
  t.len <- extend_ints t.len m 0;
  t.state <- extend t.state m Clean;
  t.since <- extend t.since m 0.0;
  t.fate <- extend t.fate m Resident;
  t.handle <- extend_ints t.handle m 0;
  t.lru_prev <- extend_ints t.lru_prev m 0;
  t.lru_next <- extend_ints t.lru_next m 0;
  t.fprev <- extend_ints t.fprev m 0;
  t.fnext <- extend_ints t.fnext m 0;
  for s = n to m - 1 do
    t.handle.!(s) <- s
  done;
  for s = n to m - 2 do
    t.fnext.!(s) <- s + 1
  done;
  t.free <- n

let alloc_slot t =
  if t.free = 0 then grow t;
  let s = t.free in
  t.free <- t.fnext.!(s);
  s

(* ---- LRU list ---- *)

(* circular through slot 0; no allocation and no write barrier *)
(* snfs-hot *)
let lru_unlink t s =
  let next = t.lru_next.!(s) in
  if next <> s then begin
    let prev = t.lru_prev.!(s) in
    t.lru_next.!(prev) <- next;
    t.lru_prev.!(next) <- prev;
    t.lru_prev.!(s) <- s;
    t.lru_next.!(s) <- s
  end

(* snfs-hot *)
let lru_append t s =
  let last = t.lru_prev.!(0) in
  t.lru_next.!(last) <- s;
  t.lru_prev.!(s) <- last;
  t.lru_next.!(s) <- 0;
  t.lru_prev.!(0) <- s

(* snfs-hot *)
let touch t s =
  lru_unlink t s;
  lru_append t s

(* ---- table ---- *)

(* One flat table with the block address packed into a single int key:
   the lookup on every cache read/write hashes one immediate int
   instead of walking two tables. 21 bits of index is a 2 GB file at
   1 kB blocks — far beyond anything the workloads create — and leaves
   40+ bits for file ids. *)
let index_bits = 21

(* snfs-hot *)
let key ~file ~index =
  if index < 0 || index lsr index_bits <> 0 then
    invalid_arg (Printf.sprintf "Cache: block index %d out of range" index);
  (file lsl index_bits) lor index

let file_of t s = t.key.!(s) asr index_bits
let index_of t s = t.key.!(s) land ((1 lsl index_bits) - 1)

(* the slot of the block at (file, index), or 0 when none is cached *)
(* snfs-hot *)
let find t ~file ~index = Sim.Inttbl.find t.blocks (key ~file ~index)

(* The per-file doubly-linked chain serves every whole-file walk
   (flush, invalidate, drop, the syncer). Chain order is reverse
   insertion order: deterministic, and callers that need index order
   sort (see [by_index]). The block leaves its chain for good, so its
   own links are left as they are. *)
let chain_unlink t s =
  let prev = t.fprev.!(s) and next = t.fnext.!(s) in
  if prev = s then (
    (* no predecessor: s is the head of its chain *)
    if next = s then ignore (Sim.Inttbl.remove t.file_heads (file_of t s) : bool)
    else begin
      t.fprev.!(next) <- next;
      Sim.Inttbl.replace t.file_heads (file_of t s) next
    end)
  else if next = s then t.fnext.!(prev) <- prev (* prev becomes tail *)
  else begin
    t.fnext.!(prev) <- next;
    t.fprev.!(next) <- prev
  end

let chain_push t s =
  let h = Sim.Inttbl.find t.file_heads (file_of t s) in
  if h <> 0 then begin
    t.fnext.!(s) <- h;
    t.fprev.!(h) <- s
  end
  else t.fnext.!(s) <- s;
  t.fprev.!(s) <- s;
  Sim.Inttbl.replace t.file_heads (file_of t s) s

let free_slot t s =
  t.handle.!(s) <- t.handle.!(s) + (1 lsl slot_bits);
  t.fnext.!(s) <- t.free;
  t.free <- s

(* Take the block out of the table, its file's chain and the LRU list,
   and free its slot if the block is clean and no fetch is in flight
   on it. Otherwise the slot still serves the fetch or the write-back
   in flight, and the writers its waiters resume, and the completion
   calls this again, which then only frees the slot. (A write that
   landed on a doomed write-back leaves a dirty gone block: only a
   holder of its handle can write it back, and until one does it
   keeps its slot.) The only place a slot is freed. *)
let table_remove t s =
  (match t.fate.!(s) with
  | Resident | Doomed ->
      ignore (Sim.Inttbl.remove t.blocks t.key.!(s) : bool);
      t.count <- t.count - 1;
      lru_unlink t s;
      chain_unlink t s;
      t.fate.!(s) <- Gone
  | Gone -> ());
  match t.state.!(s) with
  | Clean when Sim.Inttbl.find t.fetch s == t.no_fetch -> free_slot t s
  | Fetching | Clean | Dirty | Writing | Redirtied -> ()

(* A new clean block in a free slot, linked in as the most recently
   used *)
let insert t ~file ~index =
  let k = key ~file ~index in
  let s = alloc_slot t in
  t.key.!(s) <- k;
  t.stamp.!(s) <- 0;
  t.len.!(s) <- 0;
  t.state.!(s) <- Clean;
  t.fate.!(s) <- Resident;
  Sim.Inttbl.replace t.blocks k s;
  chain_push t s;
  t.count <- t.count + 1;
  lru_append t s;
  s

(* Fold [f t] over a chain in place, from slot [s] on, newest block
   first. [f] may [table_remove] the block it is given: the walk reads
   the next slot before the call. [f] gets the cache as an argument,
   so a walk that needs it takes a closed function and allocates
   nothing. *)
let rec fold_chain t f s acc =
  let next = t.fnext.!(s) in
  let acc = f t s acc in
  if next = s then acc else fold_chain t f next acc

let fold_file t ~file f acc =
  let h = Sim.Inttbl.find t.file_heads file in
  if h = 0 then acc else fold_chain t f h acc

(* Consing handles along a chain yields insertion order, which is
   ascending index order for sequential writes: only a run written out
   of order is sorted. The blocks are resident, so their slots hold
   their indices. *)
let rec ascending t = function
  | a :: (b :: _ as rest) ->
      index_of t (slot a) < index_of t (slot b) && ascending t rest
  | [] | [ _ ] -> true

let by_index t run =
  if ascending t run then run
  else
    List.sort
      (fun a b -> Int.compare (index_of t (slot a)) (index_of t (slot b)))
      run

(* ---- write-back machinery ---- *)

let wake_write_waiters t s =
  match Sim.Inttbl.find t.waiters s with
  | [] -> ()
  | ws ->
      ignore (Sim.Inttbl.remove t.waiters s : bool);
      List.iter (fun w -> w ()) (List.rev ws)

let wait_write t s =
  match t.state.!(s) with
  | Writing | Redirtied ->
      Sim.Engine.suspend t.engine (fun resume ->
          Sim.Inttbl.replace t.waiters s
            ((fun () -> resume ()) :: Sim.Inttbl.find t.waiters s))
  | Fetching | Clean | Dirty -> ()

(* Write the block back if dirty; blocks the caller until the block is
   clean (or the in-flight write it was waiting on completes). [ctx]
   names the operation charged for the write (a `Sync write or flush);
   background write-back passes none. A block whose slot was freed is
   clean and gone. The slot cannot be freed during the backend write,
   but the waiters woken after it run at once and may free it. *)
let rec do_writeback ?(ctx = Obs.Causal.none) t h =
  if live t h then
    let s = slot h in
    match t.state.!(s) with
    | Fetching | Clean -> ()
    | Writing | Redirtied ->
        wait_write t s;
        do_writeback ~ctx t h
    | Dirty ->
        t.state.!(s) <- Writing;
        let file = file_of t s and index = index_of t s in
        cache_incr t "cache_writebacks_total";
        cache_event ~ctx t "writeback" ~file ~index;
        t.backend.write_block ~ctx ~file ~index ~stamp:t.stamp.!(s)
          ~len:t.len.!(s);
        (t.state.!(s) <-
           match t.state.!(s) with
           | Redirtied -> Dirty (* since the write landed *)
           | Fetching | Clean | Dirty | Writing -> Clean);
        wake_write_waiters t s;
        if live t h then
          match t.fate.!(s) with
          | Doomed | Gone -> table_remove t s
          | Resident -> ()

let mark_dirty t s =
  match t.state.!(s) with
  | Fetching | Clean ->
      t.state.!(s) <- Dirty;
      t.since.!(s) <- Sim.Engine.now t.engine
  | Dirty -> () (* keep original age: Unix tracks oldest modification *)
  | Writing | Redirtied ->
      t.state.!(s) <- Redirtied;
      t.since.!(s) <- Sim.Engine.now t.engine

(* ---- capacity / eviction ---- *)

let evictable t s =
  match (t.fate.!(s), t.state.!(s)) with
  | Resident, (Clean | Dirty) -> true
  | (Resident | Doomed | Gone), (Fetching | Clean | Dirty | Writing | Redirtied)
    ->
      false

let rec ensure_capacity t =
  if t.count >= t.capacity then begin
    (* scan from LRU end for an evictable block *)
    let rec scan s =
      if s = 0 || evictable t s then s else scan t.lru_next.!(s)
    in
    let s = scan t.lru_next.!(0) in
    if s <> 0 then begin
      let h = t.handle.!(s) in
      (match t.state.!(s) with
      | Dirty -> do_writeback t h (* blocks; may race, rechecked below *)
      | Fetching | Clean | Writing | Redirtied -> ());
      (* only evict if it is still present and became clean *)
      if
        live t h && evictable t s
        && match t.state.!(s) with
           | Clean -> true
           | Fetching | Dirty | Writing | Redirtied -> false
      then begin
        cache_incr t "cache_evictions_total";
        cache_event t "evict" ~file:(file_of t s) ~index:(index_of t s);
        table_remove t s
      end;
      ensure_capacity t
    end
    else begin
      (* everything is in flight; wait a moment and retry *)
      Sim.Engine.sleep t.engine 0.0005;
      ensure_capacity t
    end
  end

(* ---- pending async writes ---- *)

let pending_incr t file =
  let p = Sim.Inttbl.find t.pending file in
  if p != Sim.Inttbl.empty t.pending then p.count <- p.count + 1
  else Sim.Inttbl.replace t.pending file { count = 1; waiters = [] }

(* only after a [pending_incr] of the same file *)
let pending_decr t file =
  let p = Sim.Inttbl.find t.pending file in
  p.count <- p.count - 1;
  if p.count = 0 then begin
    let ws = List.rev p.waiters in
    p.waiters <- [];
    ignore (Sim.Inttbl.remove t.pending file);
    List.iter (fun w -> w ()) ws
  end

let wait_pending t ~file =
  let p = Sim.Inttbl.find t.pending file in
  if p.count > 0 then
    Sim.Engine.suspend t.engine (fun resume ->
        p.waiters <- (fun () -> resume ()) :: p.waiters)

(* ---- public data path ---- *)

let peek t ~file ~index =
  let s = find t ~file ~index in
  if s = 0 then None
  else
    match t.state.!(s) with
    | Fetching -> None
    | Clean | Dirty | Writing | Redirtied -> Some (t.stamp.!(s), t.len.!(s))

(* the contents of a cached block, waiting out its fetch if one is in
   flight *)
let resident t s =
  match t.state.!(s) with
  | Fetching -> Sim.Ivar.read (Sim.Inttbl.find t.fetch s)
  | Clean | Dirty | Writing | Redirtied ->
      touch t s;
      (t.stamp.!(s), t.len.!(s))

(* Below capacity a missing block is inserted at once. Only an eviction
   can block, and so let another process insert the block first: only
   then is it looked up again. The fetch in flight keeps the slot:
   when it ends, the slot still holds the block, gone or not, and the
   readers the ivar wakes at once cannot free it. *)
let read ?(ctx = Obs.Causal.none) t ~file ~index =
  let s = find t ~file ~index in
  if s <> 0 then begin
    cache_event ~ctx t "hit" ~file ~index;
    cache_incr t "cache_hits_total";
    resident t s
  end
  else begin
    cache_incr t "cache_misses_total";
    cache_event ~ctx t "miss" ~file ~index;
    let s =
      if t.count < t.capacity then 0
      else begin
        ensure_capacity t;
        find t ~file ~index
      end
    in
    if s <> 0 then resident t s
    else begin
      let s = insert t ~file ~index in
      let iv = Sim.Ivar.create t.engine in
      t.state.!(s) <- Fetching;
      Sim.Inttbl.replace t.fetch s iv;
      let stamp, len = t.backend.read_block ~ctx ~file ~index in
      (match t.state.!(s) with
      | Fetching ->
          t.stamp.!(s) <- stamp;
          t.len.!(s) <- len;
          t.state.!(s) <- Clean
      | Clean | Dirty | Writing | Redirtied -> () (* overwritten while fetching *));
      let result = (t.stamp.!(s), t.len.!(s)) in
      Sim.Ivar.fill iv result;
      ignore (Sim.Inttbl.remove t.fetch s : bool);
      (match t.fate.!(s) with
      | Doomed | Gone -> table_remove t s
      | Resident -> ());
      result
    end
  end

let write ?(ctx = Obs.Causal.none) t ~file ~index ~stamp ~len mode =
  if len < 0 || len > t.block_size then
    invalid_arg (Printf.sprintf "Cache.write: bad length %d" len);
  (* a block just inserted is already the most recently used *)
  let s =
    let s = find t ~file ~index in
    if s <> 0 then begin
      touch t s;
      s
    end
    else if t.count < t.capacity then insert t ~file ~index
    else begin
      ensure_capacity t;
      let s = find t ~file ~index in
      if s <> 0 then begin
        touch t s;
        s
      end
      else insert t ~file ~index
    end
  in
  t.stamp.!(s) <- stamp;
  t.len.!(s) <- Int.max t.len.!(s) len;
  mark_dirty t s;
  match mode with
  | `Delayed ->
      (* a doomed block would leave the cache dirty when its fetch or
         write-back ends, and nothing would write it: the write revives
         it *)
      t.fate.!(s) <- Resident
  | `Sync -> do_writeback ~ctx t t.handle.!(s)
  | `Async ->
      let h = t.handle.!(s) in
      pending_incr t file;
      Sim.Engine.spawn t.engine ~name:t.write_behind_name (fun () ->
          (* write-behind completes after the caller returns: charge it
             to the operation anyway — it induced the disk write *)
          do_writeback ~ctx t h;
          pending_decr t file)

(* ---- consistency operations ---- *)

let flush_file ?(ctx = Obs.Causal.none) t ~file =
  let rec loop () =
    let dirty =
      fold_file t ~file
        (fun t s acc -> if is_dirty t s then t.handle.!(s) :: acc else acc)
        []
    in
    if dirty <> [] then begin
      (* a per-file flush is protocol-required work, not table fan-out *)
      (* snfs-fanout: bounded — the dirty blocks of a single file *)
      List.iter (fun h -> do_writeback ~ctx t h) (by_index t dirty);
      loop () (* a write may have landed while we were flushing *)
    end
  in
  loop ()

let flush_all t =
  let files = Sim.Inttbl.fold (fun file _ acc -> file :: acc) t.file_heads [] in
  List.iter (fun file -> flush_file t ~file) (List.sort Int.compare files)

let flush_block ?(ctx = Obs.Causal.none) t ~file ~index =
  let s = find t ~file ~index in
  if s <> 0 then do_writeback ~ctx t t.handle.!(s)

(* Drop the block without writing it back; true if that averted a
   write. *)
let drop t s =
  match t.state.!(s) with
  | Dirty ->
      cache_incr t "cache_writes_averted_total";
      t.state.!(s) <- Clean;
      table_remove t s;
      true
  | Writing | Redirtied | Fetching ->
      (* in flight; dropped on completion *)
      t.fate.!(s) <- Doomed;
      false
  | Clean ->
      table_remove t s;
      false

let drop_block t ~file ~index =
  let s = find t ~file ~index in
  if s <> 0 then ignore (drop t s : bool)

let drop_clean t ~file =
  fold_file t ~file
    (fun t s () -> if not (is_dirty t s) then ignore (drop t s : bool))
    ()

let block_dirty t ~file ~index =
  let s = find t ~file ~index in
  s <> 0 && is_dirty t s

let dirty_count t ~file =
  fold_file t ~file (fun t s n -> if is_dirty t s then n + 1 else n) 0

let invalidate_file t ~file =
  fold_file t ~file
    (fun t s () ->
      if is_dirty t s then
        invalid_arg "Cache.invalidate_file: file has dirty blocks";
      ignore (drop t s : bool))
    ()

let cancel_dirty t ~file =
  fold_file t ~file
    (fun t s averted -> if drop t s then averted + 1 else averted)
    0

(* ---- syncer ---- *)

(* Flush a batch four at a time, like the pool of biod-style write-back
   daemons real clients ran; a serial flusher could not keep up with a
   busy application. The batch list is the queue: [min 4 n] flushers
   each take its next block until it is empty, so a block waiting its
   turn costs a list cell, not a process. A flusher takes its next
   block where its write-back ends, where a 4-unit pool's release would
   resume the next of one process per block, so the blocks are written
   in list order at the same instants. A block's [done_] comes before
   its successor starts, and the count cannot reach zero while a
   successor is pending. The list holds handles: a block dropped while
   it waits its turn may see its slot reused, and its handle then
   names no block. *)
let flush_batch t victims =
  match victims with
  | [] -> ()
  | victims ->
      let wg = Sim.Waitgroup.create t.engine in
      let n = List.length victims in
      Sim.Waitgroup.add wg ~n ();
      let batch = ref victims in
      let rec flusher () =
        match !batch with
        | [] -> ()
        | h :: rest ->
            batch := rest;
            do_writeback t h;
            Sim.Waitgroup.done_ wg;
            flusher ()
      in
      for _ = 1 to Int.min 4 n do
        Sim.Engine.spawn t.engine ~name:t.flusher_name flusher
      done;
      Sim.Waitgroup.wait wg

(* Each tick writes back the blocks dirty for at least [min_age], in
   (file, index) order: each file's run comes from its own chain, and
   the runs, one per file with victims, are sorted by file. *)
let start_syncer t ?(min_age = 0.0) ~interval () =
  if t.syncer_started then invalid_arg "Cache.start_syncer: already started";
  t.syncer_started <- true;
  let run_file = function h :: _ -> file_of t (slot h) | [] -> assert false in
  let rec loop () =
    Sim.Engine.sleep t.engine interval;
    let now = Sim.Engine.now t.engine in
    let old_enough t s acc =
      match t.state.!(s) with
      | Dirty when now -. t.since.!(s) >= min_age -> t.handle.!(s) :: acc
      | Dirty | Fetching | Clean | Writing | Redirtied -> acc
    in
    let runs =
      (* snfs-fanout: bounded — capacity_blocks chains, once per tick *)
      Sim.Inttbl.fold
        (fun _ head runs ->
          match fold_chain t old_enough head [] with
          | [] -> runs
          | run -> by_index t run :: runs)
        t.file_heads []
      |> List.sort (fun a b -> Int.compare (run_file a) (run_file b))
    in
    flush_batch t (List.concat runs);
    loop ()
  in
  Sim.Engine.spawn t.engine ~name:(t.name ^ ".syncer") loop
