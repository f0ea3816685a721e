(* Layer replay budget: each layer's public functions timed in isolation,
   on the mix of operations the traced run counted.

   The kernels are the cases of bench/main.ml's Bechamel micro-benches
   (eventq push+pop, xdr round trip, blockcache write+flush, state_table
   open+close), parameterised by the counted mix, so one harness can
   later replace both. Each returns host nanoseconds per operation, the
   median over several batches. *)

let now_ns = Vtrace.now_ns

(* median ns/op of [batches] runs of [kernel], which does [ops] ops *)
let batches = 5

let per_op ~ops kernel =
  kernel ();
  let samples =
    Array.init batches (fun _ ->
        let t0 = now_ns () in
        kernel ();
        float_of_int (now_ns () - t0) /. float_of_int ops)
  in
  Array.sort compare samples;
  samples.(batches / 2)

(* ---- Sim.Eventq: push/pop at the run's mean queue depth ---- *)

let eventq ~depth =
  let depth = max 1 depth in
  let pairs = 20_000 in
  let rng = Random.State.make [| depth |] in
  let deltas = Array.init 1024 (fun _ -> Random.State.float rng 1.0) in
  let fn () = () in
  let kernel () =
    let q = Sim.Eventq.create () in
    for i = 0 to depth - 1 do
      Sim.Eventq.push q ~time:deltas.(i land 1023) ~seq:i fn
    done;
    (* hold model, the engine's pattern: pop the earliest, schedule a
       successor a little later *)
    for i = depth to depth + pairs - 1 do
      let t = Sim.Eventq.min_time q in
      let (_ : unit -> unit) = Sim.Eventq.pop_fn q in
      Sim.Eventq.push q ~time:(t +. deltas.(i land 1023)) ~seq:i fn
    done
  in
  (* a push and a pop per pair *)
  per_op ~ops:(2 * pairs) kernel

(* ---- XDR: client stub encode, server decode + encode, stub decode ---- *)

let attrs =
  {
    Localfs.ino = 42;
    gen = 1;
    ftype = Localfs.File;
    size = 123456;
    nlink = 1;
    mtime = 100.5;
    ctime = 99.0;
  }

let fh = { Nfs.Wire.fsid = 7; ino = 42; gen = 1 }

(* The server half of each procedure, as Nfs.Wire.handle_basic and the
   SNFS server marshal it, with the file-system work left out. *)
let server ~proc ?bulk:_ args =
  let d = Xdr.Dec.of_bytes args in
  let e = Xdr.Enc.create () in
  let ok () = Nfs.Wire.enc_status e (Ok ()) in
  (match proc with
  | "lookup" | "create" | "mkdir" ->
      ignore (Nfs.Wire.dec_fh d);
      ignore (Xdr.Dec.string d);
      ok ();
      Nfs.Wire.enc_fh e fh;
      Nfs.Wire.enc_attrs e attrs
  | "remove" | "rmdir" ->
      ignore (Nfs.Wire.dec_fh d);
      ignore (Xdr.Dec.string d);
      ok ()
  | "read" ->
      ignore (Nfs.Wire.dec_fh d);
      ignore (Xdr.Dec.uint32 d);
      ok ();
      Xdr.Enc.uint32 e 17;
      Xdr.Enc.uint32 e 4096
  | "write" ->
      ignore (Nfs.Wire.dec_fh d);
      for _ = 1 to 3 do
        ignore (Xdr.Dec.uint32 d)
      done;
      ok ();
      Nfs.Wire.enc_attrs e attrs
  | "readdir" ->
      ignore (Nfs.Wire.dec_fh d);
      ok ();
      Xdr.Enc.array e (Xdr.Enc.string e) [ "a.c"; "b.c"; "c.h"; "Makefile" ]
  | "open" ->
      ignore (Nfs.Wire.dec_fh d);
      ignore (Xdr.Dec.bool d);
      ok ();
      Xdr.Enc.bool e true;
      Xdr.Enc.uint32 e 3;
      Xdr.Enc.uint32 e 2;
      Nfs.Wire.enc_attrs e attrs
  | "close" ->
      ignore (Nfs.Wire.dec_fh d);
      ignore (Xdr.Dec.bool d);
      ok ()
  | "callback" ->
      ignore (Nfs.Wire.dec_callback d);
      ok ()
  | _ ->
      (* getattr, setattr and the remaining fh-addressed procedures *)
      ignore (Nfs.Wire.dec_fh d);
      ok ();
      Nfs.Wire.enc_attrs e attrs);
  Xdr.Enc.to_bytes e

let round_trip proc =
  let call = server in
  match proc with
  | "lookup" -> ignore (Nfs.Wire.lookup call ~dir:fh "stdio.h")
  | "create" -> ignore (Nfs.Wire.create call ~dir:fh "prog.o")
  | "mkdir" -> ignore (Nfs.Wire.mkdir call ~dir:fh "dir")
  | "remove" -> Nfs.Wire.remove call ~dir:fh "ctm.tmp"
  | "rmdir" -> Nfs.Wire.rmdir call ~dir:fh "dir"
  | "read" -> ignore (Nfs.Wire.read call fh ~index:3)
  | "write" -> ignore (Nfs.Wire.write call fh ~index:3 ~stamp:17 ~len:4096)
  | "readdir" -> ignore (Nfs.Wire.readdir call fh)
  | "open" -> ignore (Nfs.Wire.snfs_open call fh ~write_mode:false)
  | "close" -> Nfs.Wire.snfs_close call fh ~write_mode:false
  | "callback" ->
      let e = Xdr.Enc.create () in
      Nfs.Wire.enc_callback e
        { cb_fh = fh; cb_writeback = true; cb_invalidate = true; cb_ctx = 0 };
      ignore
        (Nfs.Wire.dec_status
           (Xdr.Dec.of_bytes (call ~proc (Xdr.Enc.to_bytes e))))
  | _ -> ignore (Nfs.Wire.getattr call fh)

(* ns per RPC (two messages) over the counted procedure mix *)
let xdr ~mix =
  let mix = if mix = [] then [ ("getattr", 1) ] else mix in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 mix in
  let slots = 1000 in
  let schedule =
    Array.of_list
      (List.concat_map
         (fun (proc, n) ->
           List.init (max 1 (n * slots / total)) (fun _ -> proc))
         mix)
  in
  let rounds = 10 in
  per_op ~ops:(rounds * Array.length schedule) (fun () ->
      for _ = 1 to rounds do
        Array.iter round_trip schedule
      done)

(* ---- Blockcache.Cache: reads at the counted hit/miss mix, delayed
   writes for the counted write-backs, and the counted share of
   evictions ---- *)

let cache ~hits ~misses ~writebacks ~evictions =
  let total = max 1 (hits + misses + writebacks) in
  let ops = 10_000 in
  let scale n = n * ops / total in
  let hot = 256 in
  let n_hit = scale hits and n_miss = scale misses in
  let n_write = max 16 (ops - n_hit - n_miss) in
  (* size the cache so that the distinct blocks touched overflow it by
     the counted share of evictions *)
  let distinct = hot + n_miss + n_write in
  let capacity = max (hot + 16) (distinct - scale evictions) in
  let backend =
    {
      Blockcache.Cache.read_block = (fun ~ctx:_ ~file:_ ~index:_ -> (0, 4096));
      write_block = (fun ~ctx:_ ~file:_ ~index:_ ~stamp:_ ~len:_ -> ());
    }
  in
  let kernel () =
    let e = Sim.Engine.create () in
    Sim.Engine.spawn e (fun () ->
        let c =
          Blockcache.Cache.create e ~name:"replay" ~capacity_blocks:capacity
            ~block_size:4096 backend
        in
        for i = 0 to hot - 1 do
          ignore (Blockcache.Cache.read c ~file:1 ~index:i)
        done;
        for i = 0 to n_hit - 1 do
          ignore (Blockcache.Cache.read c ~file:1 ~index:(i mod hot))
        done;
        for i = 0 to n_miss - 1 do
          ignore (Blockcache.Cache.read c ~file:2 ~index:i)
        done;
        (* delayed writes, flushed a file of 16 blocks at a time, as a
           close or a write-back callback does *)
        for i = 0 to n_write - 1 do
          let file = 3 + (i lsr 4) in
          Blockcache.Cache.write c ~file ~index:(i land 15) ~stamp:i ~len:4096
            `Delayed;
          if i land 15 = 15 then Blockcache.Cache.flush_file c ~file
        done;
        Blockcache.Cache.flush_all c);
    Sim.Engine.run e
  in
  per_op ~ops:(hot + n_hit + n_miss + n_write) kernel

(* ---- Spritely.State_table: open/close by several clients, mostly
   reads, every fourth open a write ---- *)

let state_table () =
  let files = 50 and rounds = 40 in
  let kernel () =
    let t = Spritely.State_table.create () in
    for r = 1 to rounds do
      for file = 1 to files do
        let client = (file + r) land 3 in
        let mode =
          if (file + r) land 3 = 0 then Spritely.State_table.Write
          else Spritely.State_table.Read
        in
        ignore (Spritely.State_table.open_file t ~file ~client ~mode);
        Spritely.State_table.close_file t ~file ~client ~mode
      done
    done
  in
  per_op ~ops:(2 * files * rounds) kernel
