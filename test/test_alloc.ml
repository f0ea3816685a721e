(* Allocation-regression tests for the zero-allocation hot paths
   (DESIGN.md section 11).

   The dispatch loop's event-queue cycle and XDR encoding and decoding
   must allocate exactly zero minor words: these run tens of
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
        let fn = Sim.Eventq.pop_until q cell in
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
  (* min_time/min_seq expose the full key the engine merges its heap
     and its watchdog lanes by: ties on time break by sequence number *)
  let q = Sim.Eventq.create () in
  Sim.Eventq.push q ~time:1.0 ~seq:7 Sim.Eventq.nop;
  Sim.Eventq.push q ~time:1.0 ~seq:3 Sim.Eventq.nop;
  Sim.Eventq.push q ~time:0.5 ~seq:9 Sim.Eventq.nop;
  Alcotest.(check (float 0.0)) "min time" 0.5 (Sim.Eventq.min_time q);
  Alcotest.(check int) "min seq" 9 (Sim.Eventq.min_seq q);
  ignore (Sim.Eventq.pop_fn q : unit -> unit);
  Alcotest.(check int) "tie broken by seq" 3 (Sim.Eventq.min_seq q)

(* The primitives every message is marshalled with: a live encoder
   with room to spare and a decoder over bytes already received encode
   and decode a word without allocating. [check_zero_alloc] runs the
   loop twice (warm-up, then measured), so each run takes the next 32
   words: a fresh or scratch encoder holds 256 bytes, both runs' worth. *)
let test_xdr_round_trip () =
  let words = 32 in
  let enc = Xdr.Enc.create () in
  let sent = Xdr.Enc.create () in
  for i = 0 to (2 * words) - 1 do
    Xdr.Enc.uint32 sent (i mod words)
  done;
  let dec = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes sent) in
  check_zero_alloc "xdr round trip" (fun () ->
      for i = 0 to words - 1 do
        Xdr.Enc.uint32 enc i
      done;
      for i = 0 to words - 1 do
        let v = Xdr.Dec.uint32 dec in
        assert (v = i)
      done);
  if native then begin
    Xdr.Dec.check_done dec;
    Alcotest.(check int) "both runs encoded" (8 * words)
      (Bytes.length (Xdr.Enc.to_bytes enc))
  end

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

(* The same for watchdogs: [Engine.timer] events on three lanes,
   dispatched merged with [Engine.after] events on the heap, from push
   to return allocate nothing once the warm-up has made the lanes and
   grown them past 500 entries. *)
let test_engine_timer_dispatch () =
  let e = Sim.Engine.create () in
  let schedule_and_run () =
    for _ = 1 to 500 do
      Sim.Engine.after e 1.0 tick;
      Sim.Engine.timer e 1.0 tick;
      Sim.Engine.timer e 2.0 tick;
      Sim.Engine.timer e 4.0 tick
    done;
    Sim.Engine.run e
  in
  check_zero_alloc "engine timer + dispatch" schedule_and_run;
  Alcotest.(check int) "events dispatched" 4000 (Sim.Engine.events_executed e)

(* A process whose wake-up is always the next event dispatched
   continues in place: with nothing else queued, a thousand sleeps
   perform no effect, queue no event and allocate nothing, while the
   clock and the event count move as if each wake-up had been
   dispatched. *)
let test_engine_sleep_in_place () =
  let e = Sim.Engine.create () in
  let naps () =
    for _ = 1 to 1000 do
      Sim.Engine.sleep e 1.0
    done
  in
  let words = ref nan in
  Sim.Engine.spawn e (fun () ->
      (* warm up, as [check_zero_alloc] does *)
      naps ();
      words := measure naps);
  Sim.Engine.run e;
  if native then
    Alcotest.(check (float 0.0)) "sleeps in place allocate nothing" 0.0 !words;
  Alcotest.(check (float 0.0)) "clock" 2000.0 (Sim.Engine.now e);
  (* the start event and one per sleep *)
  Alcotest.(check int) "events dispatched" 2001 (Sim.Engine.events_executed e)

let null_reply = { Netsim.Rpc.data = Bytes.empty; bulk = 0 }
let null_handler ~caller:_ ~ctx:_ _ = null_reply

(* Resolving a procedure the service has seen before, once per RPC,
   scans the service's short array of procedures by string equality and
   allocates nothing. A round trip to the eleventh of fourteen known
   procedures, named by a copy so the scan cannot stop at a physical
   match, allocates exactly what a round trip to the first, named by the
   very string it was registered under, does. *)
let test_rpc_proc_lookup () =
  let e = Sim.Engine.create () in
  let net = Netsim.Net.create e () in
  let rpc = Netsim.Rpc.create net () in
  let client = Netsim.Net.Host.create net "client" in
  let server = Netsim.Net.Host.create net "server" in
  let procs =
    [|
      "null"; "getattr"; "setattr"; "lookup"; "read"; "write"; "create";
      "remove"; "rename"; "mkdir"; "rmdir"; "readdir"; "open"; "close";
    |]
  in
  let svc =
    Netsim.Rpc.serve rpc server ~prog:"prog" ~threads:1 ~unknown:null_handler
      (List.map (fun p -> (p, null_handler)) (Array.to_list procs))
  in
  let round_trip proc () =
    Sim.Engine.spawn e ~name:"caller" (fun () ->
        ignore
          (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"prog" ~proc
             Bytes.empty
            : bytes));
    Sim.Engine.run e
  in
  (* the first call of each procedure resolves it *)
  Array.iter (fun p -> round_trip p ()) procs;
  let rmdir = Bytes.to_string (Bytes.of_string procs.(10)) in
  (* warm up: the service's call tables grow during the first calls *)
  for _ = 1 to 8 do
    round_trip procs.(0) ();
    round_trip rmdir ()
  done;
  let first = measure (round_trip procs.(0)) in
  let copy = measure (round_trip rmdir) in
  if native then
    Alcotest.(check (float 0.0)) "repeat lookup by copy allocates nothing"
      first copy;
  Alcotest.(check int) "calls counted under the procedure" 10
    (Stats.Counter.get (Netsim.Rpc.counters svc) "rmdir")

(* A null RPC between two idle hosts, from the caller's spawn to its
   retransmission timer firing dead, is seven events: the caller's
   start and CPU charge, the request's delivery, the server process's
   start and CPU charge, the reply's delivery and the timer. Each
   message is one event, and the call's state is one record, plus the
   small caller record the timer reaches, with a closure per delivery,
   the timer and the execution: 172 minor words. A second event per
   message fails the count, and a closure per call over the call's
   state fails the bound: the retransmission loop as a local [let rec]
   was one, 22 words.

   A reply with a payload adds two CPU charges, the server's for
   sending it and the caller's for receiving it, and so two events:
   nine. The caller's charge is a sleep inside the reply's delivery
   event, which ends with the resume ([Engine.suspend_tail]), so it
   continues in place and costs no more than the null round trip. A
   [Sleep] effect there, its continuation and its queued wake-up
   closure, adds 18 words and fails the same bound. *)
let rpc_round_trip_events = 7
let rpc_reply_round_trip_events = 9
let rpc_round_trip_words = 178.0

let rpc_round_trip reply =
  let e = Sim.Engine.create () in
  let net = Netsim.Net.create e () in
  let rpc = Netsim.Rpc.create net () in
  let client = Netsim.Net.Host.create net "client" in
  let server = Netsim.Net.Host.create net "server" in
  let handler ~caller:_ ~ctx:_ _ = reply in
  ignore
    (Netsim.Rpc.serve rpc server ~prog:"prog" ~threads:1 ~unknown:handler
       [ ("null", handler) ]
      : Netsim.Rpc.service);
  let call () =
    ignore
      (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"prog" ~proc:"null"
         Bytes.empty
        : bytes)
  in
  let round_trip () =
    Sim.Engine.spawn e ~name:"caller" call;
    Sim.Engine.run e
  in
  (* the first call resolves the service and the procedure *)
  round_trip ();
  let before = Sim.Engine.events_executed e in
  let words = measure round_trip in
  (Sim.Engine.events_executed e - before, words)

let check_round_trip what ~events reply =
  let n, words = rpc_round_trip reply in
  Alcotest.(check int) ("events per " ^ what) events n;
  if native && words > rpc_round_trip_words then
    Alcotest.failf "a %s allocates %.0f minor words (bound %.0f)" what words
      rpc_round_trip_words

let test_rpc_round_trip () =
  check_round_trip "null RPC round trip" ~events:rpc_round_trip_events
    null_reply

let test_rpc_reply_round_trip () =
  check_round_trip "round trip with a reply payload"
    ~events:rpc_reply_round_trip_events
    { Netsim.Rpc.data = Bytes.make 64 'r'; bulk = 0 }

(* Finding the gnode of a known file, which every client operation on
   a file does first, allocates nothing. The client core here mounts an
   NFS server and learns the root and eight created files. *)
let test_gnode_lookup () =
  let e = Sim.Engine.create () in
  let cluster = Experiments.Cluster.create e in
  let server =
    Experiments.Cluster.serve cluster ~fsid:1 Experiments.Stack.Nfs
  in
  let core =
    Nfs.Client_core.create
      {
        Nfs.Client_core.prog = Nfs.Nfs_server.prog;
        cat = "alloc";
        fresh = (fun _ _ -> ());
        merge = (fun _ _ _ _ _ -> ());
        on_remove = ignore;
      }
      cluster.Experiments.Cluster.rpc
      ~client:(Netsim.Net.Host.create cluster.Experiments.Cluster.net "client")
      ~server:server.Experiments.Stack.host ~root:server.Experiments.Stack.root
      ~name:"alloc" ~cache_blocks:16 ~retry_budget:None
  in
  let unused _ = assert false in
  Nfs.Client_core.attach core ~getattr:unused
    ~setattr:(fun _ ~size:_ -> ())
    ~fs_open:(fun _ _ -> ())
    ~fs_close:(fun _ _ -> ())
    ~read_block:(fun _ ~index:_ -> (0, 0))
    ~write_block:(fun _ ~index:_ ~stamp:_ ~len:_ -> ());
  let fs = Nfs.Client_core.fs core in
  let vns = ref [||] in
  Sim.Engine.spawn e ~name:"populate" (fun () ->
      let root = fs.Vfs.Fs.root () in
      vns :=
        Array.append [| root |]
          (Array.init 8 (fun i -> fs.Vfs.Fs.create ~dir:root (string_of_int i))));
  Sim.Engine.run e;
  let vns = !vns in
  Alcotest.(check int) "files known" 9 (Array.length vns);
  check_zero_alloc "client gnode lookup" (fun () ->
      for _ = 1 to 100 do
        for i = 0 to Array.length vns - 1 do
          ignore (Sys.opaque_identity (Nfs.Client_core.gnode core vns.(i)))
        done
      done)

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
    (* blocks [0, 1000 + steps) were dropped; the next [live] stay *)
    for n = 0 to 1000 + steps + live - 1 do
      let cached =
        Blockcache.Cache.peek c ~file:(file n) ~index:(index n) <> None
      in
      if cached <> (n >= 1000 + steps) then
        Alcotest.failf "block %d: cached %b" n cached
    done;
    if per_step > 512.0 then
      Alcotest.failf
        "churn at capacity allocates %.0f bytes per step (bound 512)" per_step
  end

(* A block's whole life in the cache, a [`Delayed] write that inserts
   it and the [cancel_dirty] of its deleted file that drops it,
   allocates nothing: a block is a slot, its fields and links ints,
   floats and constant constructors in the cache's slot arrays, which
   the first life grows. A tree that kept a 10-word record per block
   read 14 words per block (17 when the record's links were
   block-valued), and a walk that builds a list of the file's blocks
   costs 6 more per block. *)
let block_lifecycle_bound = 0.0

let test_block_lifecycle () =
  if native then begin
    let e = Sim.Engine.create () in
    let backend =
      {
        Blockcache.Cache.read_block = (fun ~ctx:_ ~file:_ ~index:_ -> (0, 0));
        write_block = (fun ~ctx:_ ~file:_ ~index:_ ~stamp:_ ~len:_ -> ());
      }
    in
    let c =
      Blockcache.Cache.create e ~name:"life" ~capacity_blocks:4096
        ~block_size:4096 backend
    in
    let blocks = 256 in
    let life () =
      for i = 0 to blocks - 1 do
        Blockcache.Cache.write c ~file:7 ~index:i ~stamp:i ~len:4096 `Delayed
      done;
      let averted = Blockcache.Cache.cancel_dirty c ~file:7 in
      assert (averted = blocks)
    in
    (* the first life grows the tables *)
    life ();
    let per_block = measure life /. float_of_int blocks in
    if per_block > block_lifecycle_bound then
      Alcotest.failf "a block's life allocates %.1f minor words (bound %.0f)"
        per_block block_lifecycle_bound
  end

(* Per-host tables start empty and grow with what they hold (DESIGN.md,
   "Purpose-built tables"), so a host that has done nothing yet costs
   a few hundred words. Footprints are exact: [Obj.reachable_words] of
   everything the simulation holds, before and after one more host,
   is a pure function of the code. A fixed-size table allocated at
   its bound, such as a duplicate-request cache of 4,096 slots, fails
   here with no timing noise. *)
let footprint ~before ~after roots =
  let words () = Obj.reachable_words (Obj.repr (roots ())) in
  before ();
  let w0 = words () in
  after ();
  words () - w0

(* The 32nd mount of a 32-client SNFS cluster: its host, its client
   (gnode table, block cache, RPC stub) and its callback service. One
   build reads the same count every run, but builds differ by a few
   words: 456 on an x86-64 host with OCaml 5.1.1 and the release
   profile. The cache's one-slot arrays, one per block field and link,
   its two empty side tables and its unfilled fetch ivar cost 23 words
   more than the tree that
   kept a record per block, which read 433 (a sentinel record and five
   one-slot arrays). A tree whose block cache linked blocks by pointer
   read 420 in that build, and builds of earlier trees 388, 373 and
   370. *)
let mount_footprint_bound = 512

let test_mount_footprint () =
  let e = Sim.Engine.create () in
  let cluster = Experiments.Cluster.create e in
  let server = Experiments.Cluster.serve cluster ~fsid:1 Experiments.Stack.Snfs in
  let clients = ref [] in
  let mount i =
    let name = Printf.sprintf "client%d" i in
    clients :=
      Experiments.Cluster.mount cluster server ~host:name ~name
        (Experiments.Stack.default Experiments.Stack.Snfs)
      :: !clients
  in
  let words =
    footprint
      ~before:(fun () -> for i = 0 to 30 do mount i done)
      ~after:(fun () -> mount 31)
      (fun () -> (e, cluster, server, !clients))
  in
  if words > mount_footprint_bound then
    Alcotest.failf "one mount holds %d words (bound %d)" words
      mount_footprint_bound

(* A program served on a host, before its first request: its idle
   thread count, empty backlog and the placeholder call of its vacant
   backlog slots, its procedure table and fallback handler, procedure
   and counter tables and an empty duplicate-request cache: 111
   words. *)
let served_footprint_bound = 640

let test_served_footprint () =
  let e = Sim.Engine.create () in
  let net = Netsim.Net.create e () in
  let rpc = Netsim.Rpc.create net () in
  let host = Netsim.Net.Host.create net "server" in
  let words =
    footprint ~before:ignore
      ~after:(fun () ->
        ignore
          (Netsim.Rpc.serve rpc host ~prog:"prog" ~threads:4
             ~unknown:(fun ~caller:_ ~ctx:_ _ -> assert false)
             []
            : Netsim.Rpc.service))
      (fun () -> (e, net, rpc, host))
  in
  if words > served_footprint_bound then
    Alcotest.failf "a served program holds %d words before its first request \
                    (bound %d)" words served_footprint_bound

(* One whole run of the andrew workload's SNFS config allocates a
   fixed number of minor words in one build: the simulation is
   deterministic, so from the second run in a process on (the first
   also fills lazy tables) every run reads the same count. Builds of
   one tree differ by up to a few hundred words: 1,034,769 on an x86-64
   host with OCaml 5.1.1 and the release profile, which inlines across
   modules. The tree whose block cache kept a record per block read
   1,057,044. The tree whose RPC caller waited with a plain suspension,
   so that its CPU charge for the reply performed a [Sleep] effect,
   and whose retransmission loop was a closure per call read
   1,218,854; earlier trees read 1,212,997, 1,193,585 in one build and
   1,193,093 in another, and the tree before each message got one
   generic codec read 1,168,622. The ceiling sits about 5% above it,
   so a new per-event or per-RPC allocation on the hot path fails
   here, with no timing noise. An -opaque build allocates some 24%
   more. *)
let snfs_run_minor_words_ceiling = 1_085_000.0

let snfs_andrew_run () =
  let config =
    List.find
      (fun (c : Experiments.Campaign.config) -> c.name = "snfs")
      (Experiments.Campaign.default ())
  in
  ignore (Experiments.Campaign.run_one config)

let test_snfs_andrew_run () =
  if native then begin
    snfs_andrew_run ();
    let words = measure snfs_andrew_run in
    if words > snfs_run_minor_words_ceiling then
      Alcotest.failf
        "one SNFS Andrew run allocates %.0f minor words (ceiling %.0f)" words
        snfs_run_minor_words_ceiling
  end

(* Words the same run promotes to the major heap, from an empty minor
   heap to the end of the run's last survivors: as deterministic as
   its minor words. A value the run keeps for a long time is promoted
   once, and each store of a young value into a major-heap block adds
   a remembered-set entry the next minor collection scans, so this
   counts what the run retains rather than what it allocates. It
   reads 32,280 in this binary's full run on an x86-64 host with
   OCaml 5.1.1 and the release profile (earlier tests leave other
   survivors; the tree whose block cache kept a record per block read
   39,409, and the tree before the RPC caller's tail wait 41,156).
   A tree whose duplicate-request cache kept every reply until a
   later xid evicted it read 81,038, so a server
   table that holds replies, or any per-RPC value kept past its call,
   fails the ceiling about 18% above. *)
let snfs_run_promoted_words_ceiling = 38_000.0

let test_snfs_andrew_promoted () =
  if native then begin
    snfs_andrew_run ();
    let promoted () =
      Gc.minor ();
      (Gc.quick_stat ()).Gc.promoted_words
    in
    let p0 = promoted () in
    snfs_andrew_run ();
    let words = promoted () -. p0 in
    if words > snfs_run_promoted_words_ceiling then
      Alcotest.failf
        "one SNFS Andrew run promotes %.0f words (ceiling %.0f)" words
        snfs_run_promoted_words_ceiling
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
          Alcotest.test_case "engine timer + dispatch" `Quick
            test_engine_timer_dispatch;
          Alcotest.test_case "engine sleep in place" `Quick
            test_engine_sleep_in_place;
          Alcotest.test_case "rpc repeat procedure lookup" `Quick
            test_rpc_proc_lookup;
          Alcotest.test_case "client gnode lookup" `Quick test_gnode_lookup;
          Alcotest.test_case "harness sanity" `Quick test_measure_sanity;
        ] );
      ( "bounded allocation",
        [
          Alcotest.test_case "block cache churn at capacity" `Quick
            test_cache_churn_at_capacity;
          Alcotest.test_case "block write then cancel" `Quick
            test_block_lifecycle;
          Alcotest.test_case "rpc round trip" `Quick test_rpc_round_trip;
          Alcotest.test_case "rpc round trip with a reply" `Quick
            test_rpc_reply_round_trip;
          Alcotest.test_case "one SNFS Andrew run" `Quick test_snfs_andrew_run;
          Alcotest.test_case "one SNFS Andrew run, promoted words" `Quick
            test_snfs_andrew_promoted;
        ] );
      ( "per-host footprint",
        [
          Alcotest.test_case "one mount of a 32-client cluster" `Quick
            test_mount_footprint;
          Alcotest.test_case "a served program before its first request"
            `Quick test_served_footprint;
        ] );
    ]
