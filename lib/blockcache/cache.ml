(* [ctx] is the causal context of the operation the I/O serves
   ({!Obs.Causal.none} for background write-back), passed through so
   the disk layer can tag its spans with the inducing operation. *)
type backend = {
  read_block : ctx:Obs.Causal.t -> file:int -> index:int -> int * int;
  write_block :
    ctx:Obs.Causal.t -> file:int -> index:int -> stamp:int -> len:int -> unit;
}

type wstate = Clean | Dirty of float | Writing of { mutable redirtied : float option }

type block = {
  bfile : int;
  bindex : int;
  mutable stamp : int;
  mutable len : int;
  mutable fetching : (int * int) Sim.Ivar.t option;
  mutable w : wstate;
  mutable doomed : bool; (* deleted while a write/fetch was in flight *)
  mutable write_waiters : (unit -> unit) list;
  (* The block's slot in the cache's link arrays, -1 once it is
     removed. A removed block still serves the fetch or write-back
     that holds it, through its own fields; its slot is never read
     again. *)
  mutable slot : int;
}

type pending = { mutable count : int; mutable waiters : (unit -> unit) list }

type t = {
  engine : Sim.Engine.t;
  name : string;
  write_behind_name : string; (* process names, built once *)
  flusher_name : string;
  capacity : int;
  block_size : int;
  backend : backend;
  (* Packed (file, index) keys to blocks. [find] runs on every cache
     read and write; a miss returns the table's sentinel block, so a
     hit or a miss allocates nothing. *)
  blocks : block Sim.Inttbl.t;
  file_heads : block Sim.Inttbl.t; (* newest block of each file *)
  mutable count : int;
  (* The cache's one sentinel block, in slot 0: the head of the
     circular LRU list (its lru_next side is least recently used) and
     the empty value of both tables, in neither of which it is ever
     stored. *)
  sentinel : block;
  (* The links, by slot. Relinking a block on a cache hit stores ints,
     which needs no write barrier; block-valued links would cost one
     per pointer. A self-loop ([lru_next.(s) = s]) means "not linked
     on that side". The LRU list is circular through slot 0; the
     per-file chain is a plain doubly-linked list whose head hangs off
     [file_heads]. Free slots are threaded through [fnext], ending at
     0. The arrays start at one slot and double as they fill. *)
  mutable by_slot : block array; (* a free slot holds the sentinel *)
  mutable lru_prev : int array;
  mutable lru_next : int array;
  mutable fprev : int array; (* per-file chain, insertion order *)
  mutable fnext : int array;
  mutable free : int;
  pending : pending Sim.Inttbl.t; (* async write-behinds per file *)
  mutable syncer_started : bool;
}

let is_dirty b = match b.w with Dirty _ | Writing _ -> true | Clean -> false

let create engine ~name ~capacity_blocks ~block_size backend =
  if capacity_blocks <= 0 then invalid_arg "Cache.create: capacity must be > 0";
  let sentinel =
    {
      bfile = -1;
      bindex = 0;
      stamp = 0;
      len = 0;
      fetching = None;
      w = Clean;
      doomed = false;
      write_waiters = [];
      slot = 0;
    }
  in
  let t =
    {
      engine;
      name;
      write_behind_name = name ^ ".write_behind";
      flusher_name = name ^ ".flusher";
      capacity = capacity_blocks;
      block_size;
      backend;
      blocks = Sim.Inttbl.create ~empty:sentinel;
      file_heads = Sim.Inttbl.create ~empty:sentinel;
      count = 0;
      sentinel;
      by_slot = [| sentinel |];
      lru_prev = [| 0 |];
      lru_next = [| 0 |];
      fprev = [| 0 |];
      fnext = [| 0 |];
      free = 0;
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
        (fun _ b n -> if is_dirty b then n + 1 else n)
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

(* Double the arrays and thread the new slots onto the free list. *)
let grow t =
  let n = Array.length t.by_slot in
  let extend a fill =
    let a' = Array.make (2 * n) fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.by_slot <- extend t.by_slot t.sentinel;
  t.lru_prev <- extend t.lru_prev 0;
  t.lru_next <- extend t.lru_next 0;
  t.fprev <- extend t.fprev 0;
  t.fnext <- extend t.fnext 0;
  for s = n to (2 * n) - 2 do
    t.fnext.(s) <- s + 1
  done;
  t.free <- n

let alloc_slot t =
  if t.free = 0 then grow t;
  let s = t.free in
  t.free <- t.fnext.(s);
  s

(* ---- LRU list ---- *)

(* circular through slot 0; no allocation and no write barrier *)
let lru_unlink t s =
  let next = t.lru_next.(s) in
  if next <> s then begin
    let prev = t.lru_prev.(s) in
    t.lru_next.(prev) <- next;
    t.lru_prev.(next) <- prev;
    t.lru_prev.(s) <- s;
    t.lru_next.(s) <- s
  end

let lru_append t s =
  let last = t.lru_prev.(0) in
  t.lru_next.(last) <- s;
  t.lru_prev.(s) <- last;
  t.lru_next.(s) <- 0;
  t.lru_prev.(0) <- s

let touch t b =
  lru_unlink t b.slot;
  lru_append t b.slot

(* ---- table ---- *)

(* One flat table with the block address packed into a single int key:
   the lookup on every cache read/write hashes one immediate int
   instead of walking two tables. 21 bits of index is a 2 GB file at
   1 kB blocks — far beyond anything the workloads create — and leaves
   40+ bits for file ids. *)
let index_bits = 21

let key ~file ~index =
  if index < 0 || index lsr index_bits <> 0 then
    invalid_arg (Printf.sprintf "Cache: block index %d out of range" index);
  (file lsl index_bits) lor index

(* the block at (file, index), or [none t] when none is cached *)
let find t ~file ~index = Sim.Inttbl.find t.blocks (key ~file ~index)

let none t = t.sentinel

(* The per-file doubly-linked chain serves every whole-file walk
   (flush, invalidate, drop, the syncer). Chain order is reverse
   insertion order: deterministic, and callers that need index order
   sort (see [by_index]). The slot is freed right after, so its own
   links are left as they are. *)
let chain_unlink t b =
  let s = b.slot in
  let prev = t.fprev.(s) and next = t.fnext.(s) in
  if prev = s then (
    (* no predecessor: b is the head of its chain *)
    if next = s then ignore (Sim.Inttbl.remove t.file_heads b.bfile : bool)
    else begin
      t.fprev.(next) <- next;
      Sim.Inttbl.replace t.file_heads b.bfile t.by_slot.(next)
    end)
  else if next = s then t.fnext.(prev) <- prev (* prev becomes tail *)
  else begin
    t.fnext.(prev) <- next;
    t.fprev.(next) <- prev
  end

let chain_push t b =
  let s = b.slot in
  let h = Sim.Inttbl.find t.file_heads b.bfile in
  if h != none t then begin
    t.fnext.(s) <- h.slot;
    t.fprev.(h.slot) <- s
  end
  else t.fnext.(s) <- s;
  t.fprev.(s) <- s;
  Sim.Inttbl.replace t.file_heads b.bfile b

(* Remove the block if the table still maps its address to it: a
   removed block whose fetch or write-back ends later must not take a
   newer block of the same address with it. Its slot goes back on the
   free list, and [by_slot] lets go of the record. *)
let table_remove t b =
  let k = key ~file:b.bfile ~index:b.bindex in
  if Sim.Inttbl.find t.blocks k == b then begin
    ignore (Sim.Inttbl.remove t.blocks k : bool);
    t.count <- t.count - 1;
    let s = b.slot in
    lru_unlink t s;
    chain_unlink t b;
    t.by_slot.(s) <- t.sentinel;
    t.fnext.(s) <- t.free;
    t.free <- s;
    b.slot <- -1
  end

(* A new block in a free slot, linked in as the most recently used *)
let insert t ~file ~index =
  let s = alloc_slot t in
  let b =
    {
      bfile = file;
      bindex = index;
      stamp = 0;
      len = 0;
      fetching = None;
      w = Clean;
      doomed = false;
      write_waiters = [];
      slot = s;
    }
  in
  t.by_slot.(s) <- b;
  Sim.Inttbl.replace t.blocks (key ~file ~index) b;
  chain_push t b;
  t.count <- t.count + 1;
  lru_append t s;
  b

(* Fold [f t] over a chain in place, from slot [s] on, newest block
   first. [f] may [table_remove] the block it is given: the walk reads
   the next slot before the call. [f] gets the cache as an argument,
   so a walk that needs it takes a closed function and allocates
   nothing. *)
let rec fold_chain t f s acc =
  let next = t.fnext.(s) in
  let acc = f t t.by_slot.(s) acc in
  if next = s then acc else fold_chain t f next acc

let fold_file t ~file f acc =
  let h = Sim.Inttbl.find t.file_heads file in
  if h == none t then acc else fold_chain t f h.slot acc

(* Consing along a chain yields insertion order, which is ascending
   index order for sequential writes: only a run written out of order
   is sorted. *)
let rec ascending = function
  | a :: (b :: _ as rest) -> a.bindex < b.bindex && ascending rest
  | [] | [ _ ] -> true

let by_index run =
  if ascending run then run
  else List.sort (fun a b -> Int.compare a.bindex b.bindex) run

(* ---- write-back machinery ---- *)

let wake_write_waiters b =
  let ws = List.rev b.write_waiters in
  b.write_waiters <- [];
  List.iter (fun w -> w ()) ws

let wait_write t b =
  match b.w with
  | Writing _ ->
      Sim.Engine.suspend t.engine (fun resume ->
          b.write_waiters <- (fun () -> resume ()) :: b.write_waiters)
  | Clean | Dirty _ -> ()

(* Write the block back if dirty; blocks the caller until the block is
   clean (or the in-flight write it was waiting on completes). [ctx]
   names the operation charged for the write (a `Sync write or flush);
   background write-back passes none. *)
let rec do_writeback ?(ctx = Obs.Causal.none) t b =
  match b.w with
  | Clean -> ()
  | Writing _ ->
      wait_write t b;
      do_writeback ~ctx t b
  | Dirty _ ->
      let st = Writing { redirtied = None } in
      b.w <- st;
      cache_incr t "cache_writebacks_total";
      cache_event ~ctx t "writeback" ~file:b.bfile ~index:b.bindex;
      t.backend.write_block ~ctx ~file:b.bfile ~index:b.bindex ~stamp:b.stamp
        ~len:b.len;
      (match st with
      | Writing r -> (
          match r.redirtied with
          | Some since -> b.w <- Dirty since
          | None -> b.w <- Clean)
      | Clean | Dirty _ -> assert false);
      wake_write_waiters b;
      if b.doomed then table_remove t b

let mark_dirty t b =
  let now = Sim.Engine.now t.engine in
  match b.w with
  | Clean -> b.w <- Dirty now
  | Dirty _ -> () (* keep original age: Unix tracks oldest modification *)
  | Writing r -> r.redirtied <- Some now

(* ---- capacity / eviction ---- *)

let evictable b =
  (not b.doomed) && Option.is_none b.fetching
  && match b.w with Clean | Dirty _ -> true | Writing _ -> false

let rec ensure_capacity t =
  if t.count >= t.capacity then begin
    (* scan from LRU end for an evictable block *)
    let rec scan s =
      if s = 0 then None
      else
        let b = t.by_slot.(s) in
        if evictable b then Some b else scan t.lru_next.(s)
    in
    match scan t.lru_next.(0) with
    | Some b ->
        (match b.w with
        | Dirty _ -> do_writeback t b (* blocks; may race, rechecked below *)
        | Clean | Writing _ -> ());
        (* only evict if it is still present and became clean *)
        if
          find t ~file:b.bfile ~index:b.bindex == b
          && evictable b
          && match b.w with Clean -> true | Dirty _ | Writing _ -> false
        then begin
          cache_incr t "cache_evictions_total";
          cache_event t "evict" ~file:b.bfile ~index:b.bindex;
          table_remove t b
        end;
        ensure_capacity t
    | None ->
        (* everything is in flight; wait a moment and retry *)
        Sim.Engine.sleep t.engine 0.0005;
        ensure_capacity t
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
  let b = find t ~file ~index in
  if b != none t && Option.is_none b.fetching then Some (b.stamp, b.len)
  else None

(* the contents of a cached block, waiting out its fetch if one is in
   flight *)
let resident t b =
  match b.fetching with
  | Some iv -> Sim.Ivar.read iv
  | None ->
      touch t b;
      (b.stamp, b.len)

(* Below capacity a missing block is inserted at once. Only an eviction
   can block, and so let another process insert the block first: only
   then is it looked up again. *)
let read ?(ctx = Obs.Causal.none) t ~file ~index =
  let b = find t ~file ~index in
  if b != none t then begin
    cache_event ~ctx t "hit" ~file ~index;
    cache_incr t "cache_hits_total";
    resident t b
  end
  else begin
    cache_incr t "cache_misses_total";
    cache_event ~ctx t "miss" ~file ~index;
    let b =
      if t.count < t.capacity then none t
      else begin
        ensure_capacity t;
        find t ~file ~index
      end
    in
    if b != none t then resident t b
    else begin
      let b = insert t ~file ~index in
      let iv = Sim.Ivar.create t.engine in
      b.fetching <- Some iv;
      let stamp, len = t.backend.read_block ~ctx ~file ~index in
      (match b.fetching with
      | Some iv' when iv' == iv ->
          b.stamp <- stamp;
          b.len <- len;
          b.fetching <- None
      | Some _ | None -> () (* overwritten while fetching *));
      let result = (b.stamp, b.len) in
      Sim.Ivar.fill iv result;
      if b.doomed then table_remove t b;
      result
    end
  end

let write ?(ctx = Obs.Causal.none) t ~file ~index ~stamp ~len mode =
  if len < 0 || len > t.block_size then
    invalid_arg (Printf.sprintf "Cache.write: bad length %d" len);
  (* a block just inserted is already the most recently used *)
  let b =
    let b = find t ~file ~index in
    if b != none t then begin
      touch t b;
      b
    end
    else if t.count < t.capacity then insert t ~file ~index
    else begin
      ensure_capacity t;
      let b = find t ~file ~index in
      if b != none t then begin
        touch t b;
        b
      end
      else insert t ~file ~index
    end
  in
  b.stamp <- stamp;
  b.len <- Int.max b.len len;
  (* storing [None] over [None] would still run the write barrier *)
  if Option.is_some b.fetching then b.fetching <- None;
  mark_dirty t b;
  match mode with
  | `Delayed -> ()
  | `Sync -> do_writeback ~ctx t b
  | `Async ->
      pending_incr t file;
      Sim.Engine.spawn t.engine ~name:t.write_behind_name (fun () ->
          (* write-behind completes after the caller returns: charge it
             to the operation anyway — it induced the disk write *)
          do_writeback ~ctx t b;
          pending_decr t file)

(* ---- consistency operations ---- *)

let flush_file ?(ctx = Obs.Causal.none) t ~file =
  let rec loop () =
    let dirty =
      fold_file t ~file
        (fun _ b acc -> if is_dirty b then b :: acc else acc)
        []
    in
    if dirty <> [] then begin
      (* a per-file flush is protocol-required work, not table fan-out *)
      (* snfs-fanout: bounded — the dirty blocks of a single file *)
      List.iter (fun b -> do_writeback ~ctx t b) (by_index dirty);
      loop () (* a write may have landed while we were flushing *)
    end
  in
  loop ()

let flush_all t =
  let files = Sim.Inttbl.fold (fun file _ acc -> file :: acc) t.file_heads [] in
  List.iter (fun file -> flush_file t ~file) (List.sort Int.compare files)

let flush_block ?(ctx = Obs.Causal.none) t ~file ~index =
  let b = find t ~file ~index in
  if b != none t then do_writeback ~ctx t b

(* Drop the block without writing it back; true if that averted a
   write. *)
let drop t b =
  match (b.w, b.fetching) with
  | Dirty _, _ ->
      cache_incr t "cache_writes_averted_total";
      b.w <- Clean;
      table_remove t b;
      true
  | Writing _, _ | Clean, Some _ ->
      (* in flight; dropped on completion *)
      b.doomed <- true;
      false
  | Clean, None ->
      table_remove t b;
      false

let drop_block t ~file ~index =
  let b = find t ~file ~index in
  if b != none t then ignore (drop t b : bool)

let drop_clean t ~file =
  fold_file t ~file
    (fun t b () -> if not (is_dirty b) then ignore (drop t b : bool))
    ()

let block_dirty t ~file ~index =
  let b = find t ~file ~index in
  b != none t && is_dirty b

let dirty_count t ~file =
  fold_file t ~file (fun _ b n -> if is_dirty b then n + 1 else n) 0

let invalidate_file t ~file =
  fold_file t ~file
    (fun t b () ->
      if is_dirty b then
        invalid_arg "Cache.invalidate_file: file has dirty blocks";
      ignore (drop t b : bool))
    ()

let cancel_dirty t ~file =
  fold_file t ~file
    (fun t b averted -> if drop t b then averted + 1 else averted)
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
   successor is pending. *)
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
        | b :: rest ->
            batch := rest;
            do_writeback t b;
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
  let file_of = function b :: _ -> b.bfile | [] -> assert false in
  let rec loop () =
    Sim.Engine.sleep t.engine interval;
    let now = Sim.Engine.now t.engine in
    let old_enough _ b acc =
      match b.w with
      | Dirty since when now -. since >= min_age -> b :: acc
      | Dirty _ | Clean | Writing _ -> acc
    in
    let runs =
      (* snfs-fanout: bounded — capacity_blocks chains, once per tick *)
      Sim.Inttbl.fold
        (fun _ head runs ->
          match fold_chain t old_enough head.slot [] with
          | [] -> runs
          | run -> by_index run :: runs)
        t.file_heads []
      |> List.sort (fun a b -> Int.compare (file_of a) (file_of b))
    in
    flush_batch t (List.concat runs);
    loop ()
  in
  Sim.Engine.spawn t.engine ~name:(t.name ^ ".syncer") loop
