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
  (* Intrusive links. A self-loop ([b.lru_next == b]) means "not
     linked on that side": option links would allocate a [Some] box on
     every touch, and the LRU is touched once per cache hit. The LRU
     list is circular through a sentinel block; the per-file chain is
     a plain doubly-linked list whose head hangs off [file_heads]. *)
  mutable lru_prev : block;
  mutable lru_next : block;
  mutable fprev : block; (* per-file chain, insertion order *)
  mutable fnext : block;
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
  lru : block; (* sentinel: lru_next side is least recently used *)
  pending : pending Sim.Inttbl.t; (* async write-behinds per file *)
  mutable syncer_started : bool;
}

let new_block ~file ~index =
  let rec b =
    {
      bfile = file;
      bindex = index;
      stamp = 0;
      len = 0;
      fetching = None;
      w = Clean;
      doomed = false;
      write_waiters = [];
      lru_prev = b;
      lru_next = b;
      fprev = b;
      fnext = b;
    }
  in
  b

let create engine ~name ~capacity_blocks ~block_size backend =
  if capacity_blocks <= 0 then invalid_arg "Cache.create: capacity must be > 0";
  (* one sentinel for both block tables: it is never stored in
     either *)
  let none = new_block ~file:(-1) ~index:0 in
  let t =
    {
      engine;
      name;
      write_behind_name = name ^ ".write_behind";
      flusher_name = name ^ ".flusher";
      capacity = capacity_blocks;
      block_size;
      backend;
      blocks = Sim.Inttbl.create ~empty:none 256;
      file_heads = Sim.Inttbl.create ~empty:none 32;
      count = 0;
      lru = new_block ~file:(-1) ~index:0;
      pending = Sim.Inttbl.create ~empty:{ count = 0; waiters = [] } 0;
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
      Sim.Inttbl.fold
        (fun _ b n -> match b.w with Dirty _ | Writing _ -> n + 1 | Clean -> n)
        t.blocks 0
      |> float_of_int);
  t

let name t = t.name
let resident_blocks t = t.count

(* One instant per cache action on this cache's own track. Args carry
   the block's (file, index) address only — never its stamp, which is a
   process-global counter and would break trace determinism across runs
   in one process. *)
let cache_incr t metric =
  if Obs.Metrics.on () then
    Obs.Metrics.incr ~labels:[ ("cache", t.name) ] metric

let cache_event ?(ctx = Obs.Causal.none) t name ~file ~index =
  if Obs.Trace.on () && Obs.Causal.keep ctx then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"cache" ~name ~track:t.name
      ~args:
        (Obs.Causal.arg ctx
           [ ("file", Obs.Trace.Int file); ("index", Obs.Trace.Int index) ])
      ()

(* ---- LRU list ---- *)

(* circular through the sentinel; no allocation on any path *)
let lru_unlink _t b =
  if b.lru_next != b then begin
    b.lru_prev.lru_next <- b.lru_next;
    b.lru_next.lru_prev <- b.lru_prev;
    b.lru_prev <- b;
    b.lru_next <- b
  end

let lru_append t b =
  let s = t.lru in
  let last = s.lru_prev in
  last.lru_next <- b;
  b.lru_prev <- last;
  b.lru_next <- s;
  s.lru_prev <- b

let touch t b =
  lru_unlink t b;
  lru_append t b

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

let none t = Sim.Inttbl.empty t.blocks

(* The per-file doubly-linked chain replaces the old per-file hash
   tables for whole-file walks (flush, invalidate, drop). Chain order
   is reverse insertion order — deterministic; callers that need a
   particular order sort, as they already did for the hash walk. *)
let chain_unlink t b =
  (if b.fprev == b then (
     (* no predecessor: b is the head of its chain, or unlinked *)
     if Sim.Inttbl.find t.file_heads b.bfile == b then
       if b.fnext == b then ignore (Sim.Inttbl.remove t.file_heads b.bfile)
       else begin
         b.fnext.fprev <- b.fnext;
         Sim.Inttbl.replace t.file_heads b.bfile b.fnext
       end)
   else if b.fnext == b then b.fprev.fnext <- b.fprev (* prev becomes tail *)
   else begin
     b.fprev.fnext <- b.fnext;
     b.fnext.fprev <- b.fprev
   end);
  b.fprev <- b;
  b.fnext <- b

let chain_push t b =
  let h = Sim.Inttbl.find t.file_heads b.bfile in
  if h != none t then begin
    b.fnext <- h;
    h.fprev <- b
  end
  else b.fnext <- b;
  b.fprev <- b;
  Sim.Inttbl.replace t.file_heads b.bfile b

let table_remove t b =
  let k = key ~file:b.bfile ~index:b.bindex in
  if Sim.Inttbl.remove t.blocks k then begin
    t.count <- t.count - 1;
    lru_unlink t b;
    chain_unlink t b
  end

let table_insert t b =
  Sim.Inttbl.replace t.blocks (key ~file:b.bfile ~index:b.bindex) b;
  chain_push t b;
  t.count <- t.count + 1;
  lru_append t b;
  b

let blocks_of_file t ~file =
  let rec walk acc b =
    let acc = b :: acc in
    if b.fnext == b then List.rev acc else walk acc b.fnext
  in
  let h = Sim.Inttbl.find t.file_heads file in
  if h == none t then [] else walk [] h

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
    let rec scan b =
      if b == t.lru then None
      else if evictable b then Some b
      else scan b.lru_next
    in
    match scan t.lru.lru_next with
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
    ensure_capacity t;
    (* recheck: someone may have inserted it while we evicted *)
    let b = find t ~file ~index in
    if b != none t then resident t b
    else begin
      let b = table_insert t (new_block ~file ~index) in
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
  let b =
    let b = find t ~file ~index in
    if b != none t then b
    else begin
      ensure_capacity t;
      let b = find t ~file ~index in
      if b != none t then b else table_insert t (new_block ~file ~index)
    end
  in
  b.stamp <- stamp;
  b.len <- max b.len len;
  b.fetching <- None;
  touch t b;
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
      blocks_of_file t ~file
      |> List.filter (fun b ->
             match b.w with Dirty _ | Writing _ -> true | Clean -> false)
      |> List.sort (fun a b -> compare a.bindex b.bindex)
    in
    if dirty <> [] then begin
      (* a per-file flush is protocol-required work, not table fan-out *)
      (* snfs-fanout: bounded — the dirty blocks of a single file *)
      List.iter (fun b -> do_writeback ~ctx t b) dirty;
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

let drop_block t ~file ~index =
  let b = find t ~file ~index in
  if b != none t then
    match (b.w, b.fetching) with
    | Dirty _, _ ->
        cache_incr t "cache_writes_averted_total";
        b.w <- Clean;
        table_remove t b
    | Writing _, _ -> b.doomed <- true
    | Clean, None -> table_remove t b
    | Clean, Some _ -> b.doomed <- true

let drop_clean t ~file =
  List.iter
    (fun b ->
      match (b.w, b.fetching) with
      | Clean, None -> table_remove t b
      | Clean, Some _ -> b.doomed <- true
      | (Dirty _ | Writing _), _ -> ())
    (blocks_of_file t ~file)

let block_dirty t ~file ~index =
  let b = find t ~file ~index in
  b != none t
  && match b.w with Dirty _ | Writing _ -> true | Clean -> false

let dirty_count t ~file =
  blocks_of_file t ~file
  |> List.filter (fun b ->
         match b.w with Dirty _ | Writing _ -> true | Clean -> false)
  |> List.length

let holds_file t ~file = blocks_of_file t ~file <> []

let invalidate_file t ~file =
  let blocks = blocks_of_file t ~file in
  List.iter
    (fun b ->
      match (b.w, b.fetching) with
      | Clean, None -> table_remove t b
      | Clean, Some _ -> b.doomed <- true
      | (Dirty _ | Writing _), _ ->
          invalid_arg "Cache.invalidate_file: file has dirty blocks")
    blocks

let cancel_dirty t ~file =
  let blocks = blocks_of_file t ~file in
  let averted = ref 0 in
  List.iter
    (fun b ->
      match (b.w, b.fetching) with
      | Dirty _, _ ->
          incr averted;
          cache_incr t "cache_writes_averted_total";
          b.w <- Clean;
          table_remove t b
      | Writing _, _ -> b.doomed <- true (* in flight; dropped on completion *)
      | Clean, None -> table_remove t b
      | Clean, Some _ -> b.doomed <- true)
    blocks;
  !averted

(* ---- syncer ---- *)

(* Flush a batch with bounded parallelism, like the pool of biod-style
   write-back daemons real clients ran; a serial flusher could not keep
   up with a busy application. *)
let flush_batch t ?(parallelism = 4) victims =
  match victims with
  | [] -> ()
  | victims ->
      let pool = Sim.Semaphore.create t.engine parallelism in
      let wg = Sim.Waitgroup.create t.engine in
      Sim.Waitgroup.add wg ~n:(List.length victims) ();
      List.iter
        (fun b ->
          Sim.Engine.spawn t.engine ~name:t.flusher_name (fun () ->
              Sim.Semaphore.with_unit pool (fun () -> do_writeback t b);
              Sim.Waitgroup.done_ wg))
        victims;
      Sim.Waitgroup.wait wg

let start_syncer t ?(min_age = 0.0) ~interval () =
  if t.syncer_started then invalid_arg "Cache.start_syncer: already started";
  t.syncer_started <- true;
  let rec loop () =
    Sim.Engine.sleep t.engine interval;
    let now = Sim.Engine.now t.engine in
    let old_enough b =
      match b.w with Dirty since -> now -. since >= min_age | Clean | Writing _ -> false
    in
    let victims =
      Sim.Inttbl.fold
        (fun _ b acc -> if old_enough b then b :: acc else acc)
        t.blocks []
      |> List.sort (fun a b ->
             let c = Int.compare a.bfile b.bfile in
             if c <> 0 then c else Int.compare a.bindex b.bindex)
    in
    flush_batch t victims;
    loop ()
  in
  Sim.Engine.spawn t.engine ~name:(t.name ^ ".syncer") loop
