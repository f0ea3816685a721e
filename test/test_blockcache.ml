(* Tests for the GFS buffer pool: hit/miss behaviour, write policies,
   flushing, delete cancellation, eviction, and the syncer daemon. *)

open Harness

(* A backend with a fixed per-op delay that records everything. *)
type backend_log = {
  mutable breads : (int * int) list;
  mutable bwrites : (int * int * int) list; (* file, index, stamp *)
  store : (int * int, int * int) Hashtbl.t;
}

let make_backend ?(delay = 0.01) e =
  let log = { breads = []; bwrites = []; store = Hashtbl.create 32 } in
  let backend =
    {
      Blockcache.Cache.read_block =
        (fun ~ctx:_ ~file ~index ->
          Sim.Engine.sleep e delay;
          log.breads <- (file, index) :: log.breads;
          match Hashtbl.find_opt log.store (file, index) with
          | Some v -> v
          | None -> (0, 0));
      write_block =
        (fun ~ctx:_ ~file ~index ~stamp ~len ->
          Sim.Engine.sleep e delay;
          log.bwrites <- (file, index, stamp) :: log.bwrites;
          Hashtbl.replace log.store (file, index) (stamp, len));
    }
  in
  (log, backend)

let make_cache ?(capacity = 16) e backend =
  Blockcache.Cache.create e ~name:"test" ~capacity_blocks:capacity
    ~block_size:4096 backend

let test_miss_then_hit () =
  counted (fun total e ->
      let log, backend = make_backend e in
      Hashtbl.replace log.store (1, 0) (42, 4096);
      let c = make_cache e backend in
      let stamp, len = Blockcache.Cache.read c ~file:1 ~index:0 in
      Alcotest.(check (pair int int)) "fetched" (42, 4096) (stamp, len);
      Alcotest.(check int) "one miss" 1 (total "cache_misses_total");
      let stamp2, _ = Blockcache.Cache.read c ~file:1 ~index:0 in
      Alcotest.(check int) "hit content" 42 stamp2;
      Alcotest.(check int) "one hit" 1 (total "cache_hits_total");
      Alcotest.(check int) "one backend read" 1 (List.length log.breads))

let test_concurrent_misses_coalesce () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:1.0 e in
      Hashtbl.replace log.store (1, 0) (7, 4096);
      let c = make_cache e backend in
      let results = ref [] in
      for _ = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            let stamp, _ = Blockcache.Cache.read c ~file:1 ~index:0 in
            results := stamp :: !results)
      done;
      Sim.Engine.sleep e 5.0;
      Alcotest.(check (list int)) "all got content" [ 7; 7; 7 ] !results;
      Alcotest.(check int) "single backend read" 1 (List.length log.breads))

let test_delayed_write_stays_dirty () =
  run_sim (fun e ->
      let log, backend = make_backend e in
      let c = make_cache e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:100 ~len:4096 `Delayed;
      Alcotest.(check int) "no backend write" 0 (List.length log.bwrites);
      Alcotest.(check int) "dirty" 1 (Blockcache.Cache.dirty_count c ~file:1);
      (* read sees the dirty data *)
      let stamp, _ = Blockcache.Cache.read c ~file:1 ~index:0 in
      Alcotest.(check int) "read own write" 100 stamp;
      Blockcache.Cache.flush_file c ~file:1;
      Alcotest.(check int) "flushed" 1 (List.length log.bwrites);
      Alcotest.(check int) "clean" 0 (Blockcache.Cache.dirty_count c ~file:1))

let test_sync_write_blocks () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:0.5 e in
      let c = make_cache e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Sync;
      Alcotest.(check (float 1e-9)) "waited for disk" 0.5 (Sim.Engine.now e);
      Alcotest.(check int) "written" 1 (List.length log.bwrites))

let test_async_write_does_not_block () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:0.5 e in
      let c = make_cache e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Async;
      Alcotest.(check (float 1e-9)) "returned immediately" 0.0 (Sim.Engine.now e);
      Alcotest.(check int) "not yet written" 0 (List.length log.bwrites);
      Blockcache.Cache.wait_pending c ~file:1;
      Alcotest.(check bool) "write completed" true (List.length log.bwrites = 1);
      Alcotest.(check (float 1e-9)) "waited for completion" 0.5 (Sim.Engine.now e))

let test_wait_pending_multiple () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:0.25 e in
      let c = make_cache e backend in
      for i = 0 to 3 do
        Blockcache.Cache.write c ~file:1 ~index:i ~stamp:i ~len:4096 `Async
      done;
      Blockcache.Cache.wait_pending c ~file:1;
      Alcotest.(check int) "all written" 4 (List.length log.bwrites))

let test_cancel_dirty_averts_writes () =
  counted (fun total e ->
      let log, backend = make_backend e in
      let c = make_cache e backend in
      for i = 0 to 4 do
        Blockcache.Cache.write c ~file:9 ~index:i ~stamp:i ~len:4096 `Delayed
      done;
      let averted = Blockcache.Cache.cancel_dirty c ~file:9 in
      Alcotest.(check int) "averted" 5 averted;
      Alcotest.(check int) "stat" 5 (total "cache_writes_averted_total");
      Alcotest.(check int) "backend untouched" 0 (List.length log.bwrites);
      for i = 0 to 4 do
        Alcotest.(check bool) "gone" true
          (Blockcache.Cache.peek c ~file:9 ~index:i = None)
      done)

let test_invalidate_rejects_dirty () =
  run_sim (fun e ->
      let _, backend = make_backend e in
      let c = make_cache e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Delayed;
      Alcotest.check_raises "dirty invalidate"
        (Invalid_argument "Cache.invalidate_file: file has dirty blocks")
        (fun () -> Blockcache.Cache.invalidate_file c ~file:1))

let test_invalidate_clean () =
  run_sim (fun e ->
      let log, backend = make_backend e in
      Hashtbl.replace log.store (1, 0) (5, 4096);
      let c = make_cache e backend in
      ignore (Blockcache.Cache.read c ~file:1 ~index:0);
      Blockcache.Cache.invalidate_file c ~file:1;
      Alcotest.(check bool) "dropped" true
        (Blockcache.Cache.peek c ~file:1 ~index:0 = None);
      (* re-read misses again *)
      ignore (Blockcache.Cache.read c ~file:1 ~index:0);
      Alcotest.(check int) "refetched" 2 (List.length log.breads))

let test_eviction_lru () =
  counted (fun total e ->
      let log, backend = make_backend e in
      for i = 0 to 9 do
        Hashtbl.replace log.store (1, i) (i + 100, 4096)
      done;
      let c = make_cache ~capacity:4 e backend in
      (* fill: 0 1 2 3 *)
      for i = 0 to 3 do
        ignore (Blockcache.Cache.read c ~file:1 ~index:i)
      done;
      (* touch 0 so 1 becomes LRU *)
      ignore (Blockcache.Cache.read c ~file:1 ~index:0);
      (* bring in 4: should evict 1 *)
      ignore (Blockcache.Cache.read c ~file:1 ~index:4);
      Alcotest.(check int) "evictions" 1 (total "cache_evictions_total");
      Alcotest.(check (option (pair int int)))
        "0 still resident" (Some (100, 4096))
        (Blockcache.Cache.peek c ~file:1 ~index:0);
      Alcotest.(check (option (pair int int)))
        "1 evicted" None
        (Blockcache.Cache.peek c ~file:1 ~index:1))

let test_eviction_writes_back_dirty () =
  run_sim (fun e ->
      let log, backend = make_backend e in
      let c = make_cache ~capacity:2 e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:10 ~len:4096 `Delayed;
      Blockcache.Cache.write c ~file:1 ~index:1 ~stamp:11 ~len:4096 `Delayed;
      (* inserting a third block forces a dirty eviction *)
      Blockcache.Cache.write c ~file:1 ~index:2 ~stamp:12 ~len:4096 `Delayed;
      Alcotest.(check bool) "dirty block written on eviction" true
        (List.exists (fun (_, i, s) -> i = 0 && s = 10) log.bwrites);
      (* the data survives: re-reading block 0 fetches it from backend *)
      let stamp, _ = Blockcache.Cache.read c ~file:1 ~index:0 in
      Alcotest.(check int) "content preserved" 10 stamp)

let test_syncer_flushes_periodically () =
  run_sim (fun e ->
      let log, backend = make_backend e in
      let c = make_cache e backend in
      Blockcache.Cache.start_syncer c ~interval:30.0 ();
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Delayed;
      Sim.Engine.sleep e 10.0;
      Alcotest.(check int) "not flushed yet" 0 (List.length log.bwrites);
      Sim.Engine.sleep e 25.0;
      Alcotest.(check int) "flushed by syncer" 1 (List.length log.bwrites))

let test_syncer_min_age () =
  run_sim (fun e ->
      let log, backend = make_backend e in
      let c = make_cache e backend in
      (* Sprite-style: only blocks older than 30s are written *)
      Blockcache.Cache.start_syncer c ~min_age:30.0 ~interval:10.0 ();
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Delayed;
      Sim.Engine.sleep e 25.0;
      Alcotest.(check int) "young block kept" 0 (List.length log.bwrites);
      Sim.Engine.sleep e 20.0;
      Alcotest.(check int) "old block flushed" 1 (List.length log.bwrites))

(* A syncer tick writes its batch in (file, index) order, at most four
   write-backs at a time, from [min 4 n] flusher processes that each
   take the next block when their write is done. Each process costs a
   start event, so the tick dispatches its own wake-up, [min 4 n]
   starts and one wake-up per backend write. *)
let test_syncer_batch_flushers () =
  List.iter
    (fun n ->
      run_sim (fun e ->
          let starts = ref [] and active = ref 0 and most = ref 0 in
          let backend =
            {
              Blockcache.Cache.read_block = (fun ~ctx:_ ~file:_ ~index:_ -> (0, 0));
              write_block =
                (fun ~ctx:_ ~file ~index ~stamp:_ ~len:_ ->
                  starts := (file, index) :: !starts;
                  incr active;
                  most := max !most !active;
                  Sim.Engine.sleep e 0.01;
                  decr active);
            }
          in
          let c = make_cache e backend in
          Blockcache.Cache.start_syncer c ~interval:30.0 ();
          let blocks = List.init n (fun i -> (1 + (i mod 3), i / 3)) in
          List.iter
            (fun (file, index) ->
              Blockcache.Cache.write c ~file ~index ~stamp:1 ~len:4096 `Delayed)
            (List.rev blocks);
          Sim.Engine.sleep e 29.0;
          let before = Sim.Engine.events_executed e in
          Sim.Engine.sleep e 2.0;
          let label what = Printf.sprintf "%d blocks: %s" n what in
          Alcotest.(check (list (pair int int)))
            (label "list order") (List.sort compare blocks) (List.rev !starts);
          Alcotest.(check int) (label "in flight") (min 4 n) !most;
          Alcotest.(check int)
            (label "events: main, tick, flusher starts, writes")
            (2 + min 4 n + n)
            (Sim.Engine.events_executed e - before)))
    [ 1; 3; 4; 9 ]

let test_delete_before_syncer_averts () =
  run_sim (fun e ->
      let log, backend = make_backend e in
      let c = make_cache e backend in
      Blockcache.Cache.start_syncer c ~interval:30.0 ();
      (* short-lived temporary file: written then deleted within 30s *)
      for i = 0 to 3 do
        Blockcache.Cache.write c ~file:7 ~index:i ~stamp:i ~len:4096 `Delayed
      done;
      Sim.Engine.sleep e 5.0;
      ignore (Blockcache.Cache.cancel_dirty c ~file:7);
      Sim.Engine.sleep e 60.0;
      Alcotest.(check int) "no backend writes ever" 0 (List.length log.bwrites))

let test_flush_all () =
  run_sim (fun e ->
      let log, backend = make_backend e in
      let c = make_cache e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Delayed;
      Blockcache.Cache.write c ~file:2 ~index:0 ~stamp:2 ~len:4096 `Delayed;
      Blockcache.Cache.flush_all c;
      Alcotest.(check int) "both written" 2 (List.length log.bwrites))

let test_redirty_during_writeback () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:1.0 e in
      let c = make_cache e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Delayed;
      Sim.Engine.spawn e (fun () -> Blockcache.Cache.flush_file c ~file:1);
      (* while the flush is in flight, write again *)
      Sim.Engine.sleep e 0.5;
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:2 ~len:4096 `Delayed;
      Sim.Engine.sleep e 5.0;
      (* final flush writes the new stamp *)
      Blockcache.Cache.flush_file c ~file:1;
      Alcotest.(check bool) "latest stamp reached backend" true
        (List.exists (fun (_, _, s) -> s = 2) log.bwrites);
      Alcotest.(check int) "clean at end" 0 (Blockcache.Cache.dirty_count c ~file:1))

(* property: runs a random series of operations, then flushes and
   checks that the backend store matches the latest stamps written *)
let prop_flush_convergence =
  QCheck.Test.make ~name:"after quiesce+flush, backend holds latest stamps"
    ~count:60
    QCheck.(list (pair (int_bound 3) (int_bound 5)))
    (fun ops ->
      run_sim (fun e ->
          let log, backend = make_backend ~delay:0.001 e in
          let c = make_cache ~capacity:8 e backend in
          let latest = Hashtbl.create 16 in
          let stamp = ref 0 in
          List.iter
            (fun (file, index) ->
              incr stamp;
              Hashtbl.replace latest (file, index) !stamp;
              let mode =
                match !stamp mod 3 with
                | 0 -> `Delayed
                | 1 -> `Async
                | _ -> `Sync
              in
              Blockcache.Cache.write c ~file ~index ~stamp:!stamp ~len:4096 mode)
            ops;
          Sim.Engine.sleep e 1.0;
          Blockcache.Cache.flush_all c;
          Hashtbl.fold
            (fun key want acc ->
              acc
              &&
              match Hashtbl.find_opt log.store key with
              | Some (got, _) -> got = want
              | None -> false)
            latest true))

(* ---- the block table under churn, through the public API ---- *)

(* Keys that collide in the low bits: four files, and indices that are
   multiples of 256, so packed keys differ only above bit 7. 512 keys
   can hold more than 256 blocks live, so the initial 512-slot table
   grows, runs near its load limit, and has runs that wrap around its
   end; every removal must then shift the run back correctly. *)
let table_files = [ 1; 2; 3; 4 ]
let table_indices = List.init 128 (fun m -> m * 256)

type table_op =
  | Write of int * int * int (* file, index, len *)
  | Read of int * int
  | Drop of int * int
  | Cancel of int
  | Invalidate of int

let print_table_op = function
  | Write (f, i, len) -> Printf.sprintf "write %d/%d (%d)" f i len
  | Read (f, i) -> Printf.sprintf "read %d/%d" f i
  | Drop (f, i) -> Printf.sprintf "drop %d/%d" f i
  | Cancel f -> Printf.sprintf "cancel %d" f
  | Invalidate f -> Printf.sprintf "invalidate %d" f

let table_ops_arbitrary =
  QCheck.(
    let open Gen in
    let file = oneofl table_files and index = oneofl table_indices in
    let write =
      map3 (fun f i l -> Write (f, i, 1 + l)) file index (int_bound 4095)
    in
    let op =
      frequency
        [
          (6, write);
          (3, map2 (fun f i -> Read (f, i)) file index);
          (6, map2 (fun f i -> Drop (f, i)) file index);
          (1, map (fun f -> Cancel f) (oneofl (5 :: table_files)));
          (1, map (fun f -> Invalidate f) (oneofl (5 :: table_files)));
        ]
    in
    (* writes fill the 512-slot table to near its load limit, churn
       runs it there, then more writes grow it and churn runs on *)
    let phase fill =
      map2 ( @ ) (list_repeat fill write) (list_size (int_range 100 300) op)
    in
    make
      ~print:(fun ops -> String.concat "; " (List.map print_table_op ops))
      (map2 ( @ ) (phase 200) (phase 400)))

(* The model holds the resident blocks with their (stamp, len) and
   dirtiness, and the backend store that flushes reach. After every
   step, [peek] of every key and [dirty_count] of every file must
   agree with it. A run that never held more than 256
   blocks did not grow the table, and fails too. *)
let prop_table_matches_model =
  QCheck.Test.make ~name:"peek/dirty_count match a model" ~count:25
    table_ops_arbitrary (fun ops ->
      run_sim (fun e ->
          let _, backend = make_backend ~delay:0.0 e in
          let c = make_cache ~capacity:1024 e backend in
          let resident = Hashtbl.create 512 and store = Hashtbl.create 512 in
          let stamp = ref 0 and most = ref 0 in
          let of_file f =
            Hashtbl.fold
              (fun (f', i) v acc -> if f' = f then (i, v) :: acc else acc)
              resident []
          in
          let agrees () =
            List.for_all
              (fun f ->
                List.for_all
                  (fun i ->
                    Blockcache.Cache.peek c ~file:f ~index:i
                    = Option.map
                        (fun (s, l, _) -> (s, l))
                        (Hashtbl.find_opt resident (f, i)))
                  table_indices
                && Blockcache.Cache.dirty_count c ~file:f
                   = List.length
                       (List.filter (fun (_, (_, _, d)) -> d) (of_file f)))
              (5 :: table_files)
          in
          List.for_all
            (fun op ->
              most := max !most (Hashtbl.length resident);
              (match op with
              | Write (f, i, len) ->
                  incr stamp;
                  let old_len =
                    match Hashtbl.find_opt resident (f, i) with
                    | Some (_, l, _) -> l
                    | None -> 0
                  in
                  Blockcache.Cache.write c ~file:f ~index:i ~stamp:!stamp ~len
                    `Delayed;
                  Hashtbl.replace resident (f, i)
                    (!stamp, max old_len len, true)
              | Read (f, i) ->
                  let want =
                    match Hashtbl.find_opt resident (f, i) with
                    | Some (s, l, _) -> (s, l)
                    | None ->
                        let s, l =
                          Option.value ~default:(0, 0)
                            (Hashtbl.find_opt store (f, i))
                        in
                        Hashtbl.replace resident (f, i) (s, l, false);
                        (s, l)
                  in
                  if Blockcache.Cache.read c ~file:f ~index:i <> want then
                    Alcotest.failf "read %d/%d returned the wrong contents" f i
              | Drop (f, i) ->
                  Blockcache.Cache.drop_block c ~file:f ~index:i;
                  Hashtbl.remove resident (f, i)
              | Cancel f ->
                  let dirty =
                    List.filter (fun (_, (_, _, d)) -> d) (of_file f)
                  in
                  let averted = Blockcache.Cache.cancel_dirty c ~file:f in
                  if averted <> List.length dirty then
                    Alcotest.failf "cancel %d averted %d writes, want %d" f
                      averted (List.length dirty);
                  List.iter
                    (fun (i, _) -> Hashtbl.remove resident (f, i))
                    (of_file f)
              | Invalidate f ->
                  (* invalidation rejects dirty blocks, so flush first *)
                  Blockcache.Cache.flush_file c ~file:f;
                  Blockcache.Cache.invalidate_file c ~file:f;
                  List.iter
                    (fun (i, (s, l, _)) ->
                      Hashtbl.replace store (f, i) (s, l);
                      Hashtbl.remove resident (f, i))
                    (of_file f));
              agrees ())
            ops
          && !most > 256))

(* ---- eviction order ---- *)

(* Three files of six blocks against a capacity of 8, so misses evict.
   The backend has no delay and nothing else runs, so nothing is in
   flight when a block is chosen: the victim is always the least
   recently used block, written back first if it is dirty. *)
type lru_op =
  | Lru_read of int * int
  | Lru_write of int * int * int * [ `Delayed | `Sync ] (* file, index, len *)
  | Lru_drop of int * int
  | Lru_cancel of int
  | Lru_flush of int

let lru_files = [ 1; 2; 3 ]
let lru_indices = List.init 6 Fun.id

let print_lru_op = function
  | Lru_read (f, i) -> Printf.sprintf "read %d/%d" f i
  | Lru_write (f, i, len, mode) ->
      Printf.sprintf "write %d/%d (%d, %s)" f i len
        (match mode with `Delayed -> "delayed" | `Sync -> "sync")
  | Lru_drop (f, i) -> Printf.sprintf "drop %d/%d" f i
  | Lru_cancel f -> Printf.sprintf "cancel %d" f
  | Lru_flush f -> Printf.sprintf "flush %d" f

let lru_ops_arbitrary =
  QCheck.(
    let open Gen in
    let file = oneofl lru_files and index = oneofl lru_indices in
    let op =
      frequency
        [
          (6, map2 (fun f i -> Lru_read (f, i)) file index);
          ( 4,
            map3
              (fun (f, i) len mode -> Lru_write (f, i, 1 + len, mode))
              (pair file index) (int_bound 4095)
              (frequencyl [ (3, `Delayed); (1, `Sync) ]) );
          (2, map2 (fun f i -> Lru_drop (f, i)) file index);
          (1, map (fun f -> Lru_cancel f) file);
          (1, map (fun f -> Lru_flush f) file);
        ]
    in
    make
      ~print:(fun ops -> String.concat "; " (List.map print_lru_op ops))
      (list_size (int_range 1 120) op))

(* The model is the recency list, most recent first, of the resident
   blocks with their (stamp, len) and dirtiness, and the backend store
   that write-backs reach. After every step, [peek] of every key must
   agree with it. *)
let prop_eviction_is_lru =
  QCheck.Test.make ~name:"eviction takes the least recently used block"
    ~count:300 ~long_factor:20 lru_ops_arbitrary (fun ops ->
      let capacity = 8 in
      run_sim (fun e ->
          let _, backend = make_backend ~delay:0.0 e in
          let c = make_cache ~capacity e backend in
          let recency = ref [] and store = Hashtbl.create 32 in
          let stamp = ref 0 in
          let take key =
            let v = List.assoc_opt key !recency in
            recency := List.remove_assoc key !recency;
            v
          in
          let write_back key (s, l, _) = Hashtbl.replace store key (s, l) in
          (* make room for one more block, as a miss does *)
          let make_room () =
            if List.length !recency >= capacity then
              match List.rev !recency with
              | (key, v) :: older ->
                  let _, _, dirty = v in
                  if dirty then write_back key v;
                  recency := List.rev older
              | [] -> assert false
          in
          let agrees () =
            List.for_all
              (fun f ->
                List.for_all
                  (fun i ->
                    Blockcache.Cache.peek c ~file:f ~index:i
                    = Option.map
                        (fun (s, l, _) -> (s, l))
                        (List.assoc_opt (f, i) !recency))
                  lru_indices)
              lru_files
          in
          List.for_all
            (fun op ->
              (match op with
              | Lru_read (f, i) ->
                  let want =
                    match take (f, i) with
                    | Some ((s, l, _) as v) ->
                        recency := ((f, i), v) :: !recency;
                        (s, l)
                    | None ->
                        make_room ();
                        let s, l =
                          Option.value ~default:(0, 0)
                            (Hashtbl.find_opt store (f, i))
                        in
                        recency := ((f, i), (s, l, false)) :: !recency;
                        (s, l)
                  in
                  if Blockcache.Cache.read c ~file:f ~index:i <> want then
                    Alcotest.failf "read %d/%d returned the wrong contents" f i
              | Lru_write (f, i, len, mode) ->
                  incr stamp;
                  let old_len =
                    match take (f, i) with
                    | Some (_, l, _) -> l
                    | None ->
                        make_room ();
                        0
                  in
                  Blockcache.Cache.write c ~file:f ~index:i ~stamp:!stamp ~len
                    (mode :> [ `Sync | `Async | `Delayed ]);
                  let v = (!stamp, max old_len len, true) in
                  let v =
                    match mode with
                    | `Delayed -> v
                    | `Sync ->
                        write_back (f, i) v;
                        (!stamp, max old_len len, false)
                  in
                  recency := ((f, i), v) :: !recency
              | Lru_drop (f, i) ->
                  Blockcache.Cache.drop_block c ~file:f ~index:i;
                  ignore (take (f, i))
              | Lru_cancel f ->
                  ignore (Blockcache.Cache.cancel_dirty c ~file:f : int);
                  recency := List.filter (fun ((f', _), _) -> f' <> f) !recency
              | Lru_flush f ->
                  Blockcache.Cache.flush_file c ~file:f;
                  recency :=
                    List.map
                      (fun (((f', _) as key), ((s, l, dirty) as v)) ->
                        if f' = f && dirty then begin
                          write_back key v;
                          (key, (s, l, false))
                        end
                        else (key, v))
                      !recency);
              agrees ())
            ops))

(* ---- slot reuse ---- *)

(* A read miss whose 1 s fetch is overtaken: [drop_block] dooms the
   fetching block, a [`Delayed] write lands on it and a second drop
   removes it, freeing its slot. Blocks inserted before the fetch ends
   take freed slots, and the address is written again. When the fetch
   ends the reader gets the overtaking write's stamp; the newer blocks,
   the address's new one included, keep their stamps and their LRU
   order. *)
let test_fetch_overtaken_by_write_and_drop () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:1.0 e in
      Hashtbl.replace log.store (1, 0) (5, 4096);
      let c = make_cache ~capacity:4 e backend in
      let got = ref None in
      Sim.Engine.spawn e (fun () ->
          got := Some (Blockcache.Cache.read c ~file:1 ~index:0));
      Sim.Engine.sleep e 0.25;
      Blockcache.Cache.drop_block c ~file:1 ~index:0;
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:50 ~len:4096 `Delayed;
      Blockcache.Cache.drop_block c ~file:1 ~index:0;
      Blockcache.Cache.write c ~file:2 ~index:0 ~stamp:60 ~len:4096 `Delayed;
      Blockcache.Cache.write c ~file:2 ~index:1 ~stamp:61 ~len:4096 `Delayed;
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:70 ~len:4096 `Delayed;
      Sim.Engine.sleep e 1.0;
      Alcotest.(check (option (pair int int)))
        "the reader gets the overtaking write" (Some (50, 4096)) !got;
      let peek f i = Blockcache.Cache.peek c ~file:f ~index:i in
      Alcotest.(check (list (option (pair int int))))
        "newer blocks keep their stamps"
        [ Some (60, 4096); Some (61, 4096); Some (70, 4096) ]
        [ peek 2 0; peek 2 1; peek 1 0 ];
      Alcotest.(check int) "file 1 has one dirty block" 1
        (Blockcache.Cache.dirty_count c ~file:1);
      (* LRU order is 2/0, 2/1, 1/0: fill to capacity, then each new
         block evicts the oldest *)
      Blockcache.Cache.write c ~file:3 ~index:0 ~stamp:80 ~len:4096 `Delayed;
      Blockcache.Cache.write c ~file:3 ~index:1 ~stamp:81 ~len:4096 `Delayed;
      Alcotest.(check (list (option (pair int int))))
        "2/0 evicted first" [ None; Some (61, 4096); Some (70, 4096) ]
        [ peek 2 0; peek 2 1; peek 1 0 ];
      Blockcache.Cache.write c ~file:3 ~index:2 ~stamp:82 ~len:4096 `Delayed;
      Alcotest.(check (list (option (pair int int))))
        "then 2/1" [ None; Some (70, 4096) ] [ peek 2 1; peek 1 0 ];
      Alcotest.(check (list (triple int int int)))
        "evicted blocks written back, the dropped ones never"
        [ (2, 0, 60); (2, 1, 61) ]
        (List.rev log.bwrites))

(* A block dropped during its write-back is doomed and leaves the cache
   when the write-back ends, freeing its slot. A [`Sync] write that
   landed on it meanwhile waits for that write-back, then writes the
   removed block back itself and tries to remove it again, which must
   leave alone the blocks that took its slot and its address. Written
   again after the write-back, the address gets a new block; a block
   inserted meanwhile took the freed slot. Both keep their own stamps
   and LRU order, and the next flush writes the new stamp. *)
let test_doomed_writeback_then_rewritten () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:1.0 e in
      let c = make_cache ~capacity:3 e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Delayed;
      Sim.Engine.spawn e (fun () -> Blockcache.Cache.flush_file c ~file:1);
      Sim.Engine.sleep e 0.5;
      Blockcache.Cache.drop_block c ~file:1 ~index:0;
      Alcotest.(check (option (pair int int)))
        "doomed, still resident" (Some (1, 4096))
        (Blockcache.Cache.peek c ~file:1 ~index:0);
      Sim.Engine.spawn e (fun () ->
          Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:9 ~len:4096 `Sync);
      Sim.Engine.sleep e 1.0;
      let peek f i = Blockcache.Cache.peek c ~file:f ~index:i in
      Alcotest.(check (option (pair int int))) "gone after its write-back" None
        (peek 1 0);
      Blockcache.Cache.write c ~file:2 ~index:0 ~stamp:2 ~len:4096 `Delayed;
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:3 ~len:1024 `Delayed;
      Sim.Engine.sleep e 1.0;
      Alcotest.(check (list (option (pair int int))))
        "own stamps" [ Some (2, 4096); Some (3, 1024) ] [ peek 2 0; peek 1 0 ];
      Alcotest.(check int) "the new block is dirty" 1
        (Blockcache.Cache.dirty_count c ~file:1);
      Blockcache.Cache.flush_file c ~file:1;
      Alcotest.(check (list (triple int int int)))
        "every write-back reached the backend"
        [ (1, 0, 1); (1, 0, 9); (1, 0, 3) ]
        (List.rev log.bwrites);
      (* LRU order is 2/0, 1/0 *)
      Blockcache.Cache.write c ~file:3 ~index:0 ~stamp:4 ~len:4096 `Delayed;
      Blockcache.Cache.write c ~file:3 ~index:1 ~stamp:5 ~len:4096 `Delayed;
      Alcotest.(check (list (option (pair int int))))
        "2/0 evicted first" [ None; Some (3, 1024) ] [ peek 2 0; peek 1 0 ])

(* A block dropped during its write-back is doomed. A [`Delayed] write
   that lands on it before the write-back ends revives it: the block
   stays cached and dirty with the new stamp, and a flush writes it. *)
let test_doomed_writeback_revived_by_delayed_write () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:1.0 e in
      let c = make_cache e backend in
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:1 ~len:4096 `Delayed;
      Sim.Engine.spawn e (fun () ->
          Blockcache.Cache.flush_block c ~file:1 ~index:0);
      Sim.Engine.sleep e 0.5;
      Blockcache.Cache.drop_block c ~file:1 ~index:0;
      Sim.Engine.sleep e 0.1;
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:9 ~len:4096 `Delayed;
      Sim.Engine.sleep e 1.0;
      Alcotest.(check (option (pair int int)))
        "still cached" (Some (9, 4096))
        (Blockcache.Cache.peek c ~file:1 ~index:0);
      Alcotest.(check bool) "still dirty" true
        (Blockcache.Cache.block_dirty c ~file:1 ~index:0);
      Blockcache.Cache.flush_all c;
      Alcotest.(check (list (triple int int int)))
        "the revived block is written back" [ (1, 0, 1); (1, 0, 9) ]
        (List.rev log.bwrites))

(* The same for a block dropped during a read miss's fetch: the
   [`Delayed] write that lands on it before the fetch ends keeps it
   cached and dirty. *)
let test_doomed_fetch_revived_by_delayed_write () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:1.0 e in
      Hashtbl.replace log.store (1, 0) (5, 4096);
      let c = make_cache e backend in
      Sim.Engine.spawn e (fun () ->
          ignore (Blockcache.Cache.read c ~file:1 ~index:0 : int * int));
      Sim.Engine.sleep e 0.25;
      Blockcache.Cache.drop_block c ~file:1 ~index:0;
      Blockcache.Cache.write c ~file:1 ~index:0 ~stamp:50 ~len:4096 `Delayed;
      Sim.Engine.sleep e 1.0;
      Alcotest.(check (option (pair int int)))
        "still cached" (Some (50, 4096))
        (Blockcache.Cache.peek c ~file:1 ~index:0);
      Blockcache.Cache.flush_all c;
      Alcotest.(check (list (triple int int int)))
        "the revived block is written back" [ (1, 0, 50) ]
        (List.rev log.bwrites))

(* The syncer's batch list holds each block by a handle. Five dirty
   blocks make a tick's batch; four flushers take file 1's four and
   file 2's block waits its turn in the list. Deleted meanwhile, it is
   dropped and its slot freed, and a new dirty block of file 3 takes
   that slot. When a flusher reaches the entry, its handle names no
   block: the new block is not written back, and waits for the next
   tick. *)
let test_syncer_batch_entry_outlives_its_slot () =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:1.0 e in
      let c = make_cache e backend in
      Blockcache.Cache.start_syncer c ~interval:30.0 ();
      for i = 0 to 3 do
        Blockcache.Cache.write c ~file:1 ~index:i ~stamp:(10 + i) ~len:4096
          `Delayed
      done;
      Blockcache.Cache.write c ~file:2 ~index:0 ~stamp:20 ~len:4096 `Delayed;
      Sim.Engine.sleep e 30.5;
      Alcotest.(check int) "the waiting block is dropped" 1
        (Blockcache.Cache.cancel_dirty c ~file:2);
      Blockcache.Cache.write c ~file:3 ~index:0 ~stamp:30 ~len:4096 `Delayed;
      Sim.Engine.sleep e 2.0;
      Alcotest.(check (list (triple int int int)))
        "the tick wrote its own blocks only"
        [ (1, 0, 10); (1, 1, 11); (1, 2, 12); (1, 3, 13) ]
        (List.rev log.bwrites);
      Alcotest.(check bool) "the new block is still dirty" true
        (Blockcache.Cache.block_dirty c ~file:3 ~index:0);
      Sim.Engine.sleep e 30.0;
      Alcotest.(check (list (triple int int int)))
        "the next tick writes it"
        [ (1, 0, 10); (1, 1, 11); (1, 2, 12); (1, 3, 13); (3, 0, 30) ]
        (List.rev log.bwrites))

(* ---- the syncer's write-back order ---- *)

(* Localfs caches its metadata under the pseudo-files -1 and -2, so
   negative ids sort first. Indices are written out of order (and
   again, re-dirtying a block), or as one sequential run. *)
let sync_files = [ -2; -1; 1; 2; 3 ]

type sync_op =
  | Sync_write of int * int (* file, index *)
  | Sync_run of int * int * int (* file, first index, blocks *)
  | Sync_flush of int
  | Sync_cancel of int
  | Sync_drop of int * int
  | Sync_wait of float

let print_sync_op = function
  | Sync_write (f, i) -> Printf.sprintf "write %d/%d" f i
  | Sync_run (f, i, n) -> Printf.sprintf "run %d/%d+%d" f i n
  | Sync_flush f -> Printf.sprintf "flush %d" f
  | Sync_cancel f -> Printf.sprintf "cancel %d" f
  | Sync_drop (f, i) -> Printf.sprintf "drop %d/%d" f i
  | Sync_wait d -> Printf.sprintf "wait %g" d

let sync_ops_arbitrary =
  QCheck.(
    let open Gen in
    let file = oneofl sync_files and index = int_bound 40 in
    let op =
      frequency
        [
          (6, map2 (fun f i -> Sync_write (f, i)) file index);
          ( 2,
            map3 (fun f i n -> Sync_run (f, i, 1 + n)) file index (int_bound 7)
          );
          (1, map (fun f -> Sync_flush f) file);
          (1, map (fun f -> Sync_cancel f) file);
          (2, map2 (fun f i -> Sync_drop (f, i)) file index);
          (3, map (fun d -> Sync_wait (float_of_int d)) (int_bound 12));
        ]
    in
    make
      ~print:(fun ops -> String.concat "; " (List.map print_sync_op ops))
      (list_size (int_range 1 80) op))

(* The ops run before the syncer's first tick at 60 s (waits stop short
   of it); the model keeps each dirty block's dirty-since time. At the
   tick the backend must receive exactly the blocks dirty for at least
   [min_age], in (file, index) order. *)
let syncer_writes_model ~min_age ops =
  run_sim (fun e ->
      let log, backend = make_backend ~delay:0.0 e in
      let c = make_cache ~capacity:4096 e backend in
      let interval = 60.0 in
      Blockcache.Cache.start_syncer c ~min_age ~interval ();
      let dirty = Hashtbl.create 64 in
      let write f i =
        Blockcache.Cache.write c ~file:f ~index:i ~stamp:1 ~len:4096 `Delayed;
        if not (Hashtbl.mem dirty (f, i)) then
          Hashtbl.replace dirty (f, i) (Sim.Engine.now e)
      in
      let forget f =
        Hashtbl.filter_map_inplace
          (fun (f', _) since -> if f' = f then None else Some since)
          dirty
      in
      List.iter
        (function
          | Sync_write (f, i) -> write f i
          | Sync_run (f, i, n) ->
              for i = i to i + n - 1 do
                write f i
              done
          | Sync_flush f ->
              Blockcache.Cache.flush_file c ~file:f;
              forget f
          | Sync_cancel f ->
              ignore (Blockcache.Cache.cancel_dirty c ~file:f);
              forget f
          | Sync_drop (f, i) ->
              Blockcache.Cache.drop_block c ~file:f ~index:i;
              Hashtbl.remove dirty (f, i)
          | Sync_wait d ->
              let d = Float.min d (interval -. 1.0 -. Sim.Engine.now e) in
              if d > 0.0 then Sim.Engine.sleep e d)
        ops;
      log.bwrites <- [];
      Sim.Engine.sleep e (interval +. 1.0 -. Sim.Engine.now e);
      let want =
        Hashtbl.fold
          (fun key since acc ->
            if interval -. since >= min_age then key :: acc else acc)
          dirty []
        |> List.sort compare
      in
      List.rev_map (fun (f, i, _) -> (f, i)) log.bwrites = want)

let prop_syncer_order =
  QCheck.Test.make
    ~name:"a syncer tick writes the aged dirty blocks in (file, index) order"
    ~count:200 sync_ops_arbitrary (fun ops ->
      syncer_writes_model ~min_age:0.0 ops
      && syncer_writes_model ~min_age:30.0 ops)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "blockcache"
    [
      ( "data path",
        [
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "concurrent misses coalesce" `Quick
            test_concurrent_misses_coalesce;
          Alcotest.test_case "delayed write" `Quick test_delayed_write_stays_dirty;
          Alcotest.test_case "sync write blocks" `Quick test_sync_write_blocks;
          Alcotest.test_case "async write" `Quick test_async_write_does_not_block;
          Alcotest.test_case "wait_pending" `Quick test_wait_pending_multiple;
        ] );
      ( "consistency ops",
        [
          Alcotest.test_case "cancel dirty" `Quick test_cancel_dirty_averts_writes;
          Alcotest.test_case "invalidate rejects dirty" `Quick
            test_invalidate_rejects_dirty;
          Alcotest.test_case "invalidate clean" `Quick test_invalidate_clean;
          Alcotest.test_case "flush all" `Quick test_flush_all;
          Alcotest.test_case "redirty during writeback" `Quick
            test_redirty_during_writeback;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "LRU order" `Quick test_eviction_lru;
          Alcotest.test_case "dirty eviction writes back" `Quick
            test_eviction_writes_back_dirty;
        ] );
      ( "slot reuse",
        [
          Alcotest.test_case "fetch overtaken by a write and a drop" `Quick
            test_fetch_overtaken_by_write_and_drop;
          Alcotest.test_case "doomed write-back, then written again" `Quick
            test_doomed_writeback_then_rewritten;
          Alcotest.test_case "syncer batch entry outlives its slot" `Quick
            test_syncer_batch_entry_outlives_its_slot;
          Alcotest.test_case "doomed write-back revived by a delayed write"
            `Quick test_doomed_writeback_revived_by_delayed_write;
          Alcotest.test_case "doomed fetch revived by a delayed write" `Quick
            test_doomed_fetch_revived_by_delayed_write;
        ] );
      ( "syncer",
        [
          Alcotest.test_case "periodic flush" `Quick test_syncer_flushes_periodically;
          Alcotest.test_case "min age" `Quick test_syncer_min_age;
          Alcotest.test_case "batch flushers" `Quick test_syncer_batch_flushers;
          Alcotest.test_case "delete averts" `Quick test_delete_before_syncer_averts;
        ] );
      ( "properties",
        qc
          [
            prop_flush_convergence;
            prop_table_matches_model;
            prop_eviction_is_lru;
            prop_syncer_order;
          ] );
    ]
