(* Allocation-regression tests for the zero-allocation hot paths
   (DESIGN.md section 11).

   The dispatch loop's event-queue cycle and XDR round trips on reused
   buffers must allocate exactly zero minor words: these run tens of
   thousands of times per simulated second, and in Domain-parallel
   campaigns every domain's minor collection stops all domains, so a
   "small" per-event allocation is paid twice over.

   [Gc.minor_words] itself returns a boxed float, so each measurement
   is calibrated against an [ignore]-only baseline; a true zero-
   allocation path measures the same delta as doing nothing at all.
   Allocation accounting is only exact on the native-code backend, so
   the tests are skipped under bytecode. *)

let native =
  match Sys.backend_type with
  | Sys.Native -> true
  | Sys.Bytecode | Sys.Other _ -> false

(* minor words allocated by [f ()], net of the measurement's own
   constant overhead *)
let measure f =
  let baseline =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity ());
    let w1 = Gc.minor_words () in
    w1 -. w0
  in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  (w1 -. w0) -. baseline

let check_zero_alloc name f =
  if native then begin
    (* warm up: first calls may grow arrays or fill caches *)
    f ();
    let words = measure f in
    Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0 words
  end

(* The measured loops pass literal float times: a fresh float (from
   [float_of_int], arithmetic, or a float-array read) passed to a call
   that stays out of line is boxed, which is caller-side allocation and
   would mask what these tests pin down — that the queue itself
   allocates nothing. Here no such call is left: [Eventq.push] and the
   pops inline into the loops below. The literals keep the queue tests
   meaningful in an -opaque build, where every call into [Eventq] is out
   of line. *)

let push_mixed q i =
  match i land 3 with
  | 0 -> Sim.Eventq.push q ~time:3.0 ~seq:i Sim.Eventq.nop
  | 1 -> Sim.Eventq.push q ~time:1.0 ~seq:i Sim.Eventq.nop
  | 2 -> Sim.Eventq.push q ~time:2.0 ~seq:i Sim.Eventq.nop
  | _ -> Sim.Eventq.push q ~time:0.0 ~seq:i Sim.Eventq.nop

let test_eventq_cycle () =
  let q = Sim.Eventq.create () in
  (* push beyond the initial capacity so the arrays are fully grown
     before measurement; drain back to empty *)
  for i = 0 to 255 do
    push_mixed q i
  done;
  while not (Sim.Eventq.is_empty q) do
    ignore (Sim.Eventq.pop_fn q : unit -> unit)
  done;
  let cell = [| 0.0 |] in
  check_zero_alloc "eventq push/pop cycle" (fun () ->
      for i = 0 to 99 do
        push_mixed q i
      done;
      for _ = 1 to 100 do
        let fn = Sim.Eventq.pop_until q infinity cell in
        assert (fn == Sim.Eventq.nop)
      done;
      assert (Sim.Eventq.is_empty q))

let test_eventq_pop_fn () =
  let q = Sim.Eventq.create () in
  for i = 0 to 63 do
    push_mixed q i
  done;
  while not (Sim.Eventq.is_empty q) do
    ignore (Sim.Eventq.pop_fn q : unit -> unit)
  done;
  check_zero_alloc "eventq pop_fn drain" (fun () ->
      for i = 0 to 63 do
        push_mixed q i
      done;
      while not (Sim.Eventq.is_empty q) do
        ignore (Sim.Eventq.pop_fn q : unit -> unit)
      done);
  (* ordering check, outside the measured window: pops come out by
     (time, seq) *)
  for i = 0 to 63 do
    push_mixed q i
  done;
  let last = ref neg_infinity in
  while not (Sim.Eventq.is_empty q) do
    let time = Sim.Eventq.min_time q in
    Alcotest.(check bool) "non-decreasing" true (time >= !last);
    last := time;
    ignore (Sim.Eventq.pop_fn q : unit -> unit)
  done

let test_eventq_order_key () =
  (* min_time/min_seq expose the full merge key used by the engine's
     main/timer heap split: ties on time break by sequence number *)
  let q = Sim.Eventq.create () in
  Sim.Eventq.push q ~time:1.0 ~seq:7 Sim.Eventq.nop;
  Sim.Eventq.push q ~time:1.0 ~seq:3 Sim.Eventq.nop;
  Sim.Eventq.push q ~time:0.5 ~seq:9 Sim.Eventq.nop;
  Alcotest.(check (float 0.0)) "min time" 0.5 (Sim.Eventq.min_time q);
  Alcotest.(check int) "min seq" 9 (Sim.Eventq.min_seq q);
  ignore (Sim.Eventq.pop_fn q : unit -> unit);
  Alcotest.(check int) "tie broken by seq" 3 (Sim.Eventq.min_seq q)

let test_xdr_round_trip () =
  let enc = Xdr.Enc.create () in
  (* pre-grow the encoder buffer and build the decoder once; the
     measured loop then reuses both. [to_bytes] would release the
     encoder back to the per-domain pool, so the decoder is seeded
     with an explicit copy instead. *)
  Xdr.Enc.reset enc;
  for i = 0 to 63 do
    Xdr.Enc.uint32 enc i
  done;
  let dec =
    Xdr.Dec.of_bytes
      (Bytes.sub (Xdr.Enc.unsafe_bytes enc) 0 (Xdr.Enc.length enc))
  in
  check_zero_alloc "xdr round trip on reused buffers" (fun () ->
      Xdr.Enc.reset enc;
      for i = 0 to 63 do
        Xdr.Enc.uint32 enc i
      done;
      Xdr.Dec.reuse dec (Xdr.Enc.unsafe_bytes enc) ~len:(Xdr.Enc.length enc);
      for i = 0 to 63 do
        let v = Xdr.Dec.uint32 dec in
        assert (v = i)
      done;
      Xdr.Dec.check_done dec)

(* An event dispatched through the engine, from [Engine.after] to the
   closure's return, allocates nothing. Both calls cross from this
   module into [Engine], and [Engine.after] hands [Eventq.push] a sum of
   floats: out of line, that sum is boxed, two words per event. It stays
   unboxed only when the build inlines across modules, which dune's dev
   profile forbids by compiling with -opaque; this test fails there by
   design. [tick] is a static closure, not [Eventq.nop]: the dispatch
   loop takes [nop] for its empty-queue sentinel and would stop. *)
let tick () = ()

let test_engine_after_dispatch () =
  let e = Sim.Engine.create () in
  let schedule_and_run () =
    for _ = 1 to 1000 do
      Sim.Engine.after e 1.0 tick
    done;
    Sim.Engine.run e
  in
  check_zero_alloc "engine after + dispatch" schedule_and_run;
  (* the warm-up and the measured call each dispatched all 1000 *)
  Alcotest.(check int) "events dispatched" 2000 (Sim.Engine.events_executed e)

let test_measure_sanity () =
  (* the harness itself must see allocation when there is some *)
  if native then begin
    let sink = ref [] in
    let words =
      measure (fun () -> sink := Sys.opaque_identity (ref 0) :: !sink)
    in
    Alcotest.(check bool) "allocation is visible" true (words > 0.0)
  end

(* A block cache held near capacity, churned by one insert and one drop
   per step, must not allocate in proportion to its size. Each step
   allocates a block record and its dirty state, tens of words. A table
   that leaves tombstones behind has to rehash all ~8k slots every
   ~100 steps: two fresh 8192-word arrays, over 1 kB per step on
   average. Those arrays bypass the minor heap, so this counts minor
   and major allocation together. *)
let test_cache_churn_at_capacity () =
  if native then begin
    let e = Sim.Engine.create () in
    let backend =
      {
        Blockcache.Cache.read_block = (fun ~ctx:_ ~file:_ ~index:_ -> (0, 0));
        write_block = (fun ~ctx:_ ~file:_ ~index:_ ~stamp:_ ~len:_ -> ());
      }
    in
    let c =
      Blockcache.Cache.create e ~name:"churn" ~capacity_blocks:4096
        ~block_size:4096 backend
    in
    (* block n of a sliding window: 32 files, consecutive indices *)
    let file n = 1 + (n land 31) and index n = n lsr 5 in
    let live = 4000 in
    for n = 0 to live - 1 do
      Blockcache.Cache.write c ~file:(file n) ~index:(index n) ~stamp:n
        ~len:4096 `Delayed
    done;
    let step n =
      Blockcache.Cache.write c ~file:(file (n + live)) ~index:(index (n + live))
        ~stamp:n ~len:4096 `Delayed;
      Blockcache.Cache.drop_block c ~file:(file n) ~index:(index n)
    in
    (* warm up, then measure *)
    for n = 0 to 999 do
      step n
    done;
    let steps = 4000 in
    let b0 = Gc.allocated_bytes () in
    for n = 1000 to 1000 + steps - 1 do
      step n
    done;
    let per_step = (Gc.allocated_bytes () -. b0) /. float_of_int steps in
    Alcotest.(check int) "live blocks" live
      (Blockcache.Cache.resident_blocks c);
    if per_step > 512.0 then
      Alcotest.failf
        "churn at capacity allocates %.0f bytes per step (bound 512)" per_step
  end

(* One whole run of the andrew workload's SNFS config allocates a
   fixed number of minor words: the simulation is deterministic, so
   from the second run in a process on (the first also fills lazy
   tables) the count is exact, not a sample. The ceiling sits about 5%
   above the count of a build that inlines across modules, so a new
   per-event or per-RPC allocation on the hot path fails here, with no
   timing noise. An -opaque build allocates some 13% more. *)
let snfs_run_minor_words_ceiling = 2_170_000.0

let test_snfs_andrew_run () =
  if native then begin
    let config =
      List.find
        (fun (c : Experiments.Campaign.config) -> c.name = "snfs")
        (Experiments.Campaign.default ())
    in
    let run () = ignore (Experiments.Campaign.run_one config) in
    run ();
    let words = measure run in
    if words > snfs_run_minor_words_ceiling then
      Alcotest.failf
        "one SNFS Andrew run allocates %.0f minor words (ceiling %.0f)" words
        snfs_run_minor_words_ceiling
  end

let () =
  Alcotest.run "alloc"
    [
      ( "zero-allocation hot paths",
        [
          Alcotest.test_case "eventq push/pop cycle" `Quick test_eventq_cycle;
          Alcotest.test_case "eventq pop_fn drain" `Quick test_eventq_pop_fn;
          Alcotest.test_case "eventq order key" `Quick test_eventq_order_key;
          Alcotest.test_case "xdr round trip" `Quick test_xdr_round_trip;
          Alcotest.test_case "engine after + dispatch" `Quick
            test_engine_after_dispatch;
          Alcotest.test_case "harness sanity" `Quick test_measure_sanity;
        ] );
      ( "bounded allocation",
        [
          Alcotest.test_case "block cache churn at capacity" `Quick
            test_cache_churn_at_capacity;
          Alcotest.test_case "one SNFS Andrew run" `Quick test_snfs_andrew_run;
        ] );
    ]
