(* Host-time spans around vnode calls, recorded by the benchmark itself.

   [wrap] returns a [Vfs.Fs.t] whose every operation is bracketed by
   [enter]/[leave]. Because the simulation is single-threaded, a vnode
   call that blocks returns control to the engine, which then runs other
   processes' events (and their vnode calls) before the call resumes. So
   spans overlap without nesting. Host time is charged, between any two
   span boundaries, to the most recently entered span that is still
   open: that is the span's self time. Time with no span open is
   [outside_ns]. Self times plus outside time add up to the wall time of
   the pass exactly. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let op_names =
  [|
    "lookup"; "getattr"; "read_block"; "write_block"; "open"; "close";
    "create"; "remove"; "other";
  |]

let n_ops = Array.length op_names
let lookup = 0
let getattr = 1
let read_block = 2
let write_block = 3
let fs_open = 4
let fs_close = 5
let create_op = 6
let remove = 7
let other = 8

(* a fresh block per call, so physical equality identifies the span *)
type span = { op : int }

type t = {
  calls : int array;
  self_ns : int array;
  mutable outside_ns : int;
  mutable open_spans : span list; (* most recently entered first *)
  mutable last : int;
  phases : (string, int * int) Hashtbl.t;  (** name -> spans, inclusive ns *)
}

let create () =
  {
    calls = Array.make n_ops 0;
    self_ns = Array.make n_ops 0;
    outside_ns = 0;
    open_spans = [];
    last = now_ns ();
    phases = Hashtbl.create 8;
  }

let reset t =
  Array.fill t.calls 0 n_ops 0;
  Array.fill t.self_ns 0 n_ops 0;
  t.outside_ns <- 0;
  t.open_spans <- [];
  Hashtbl.reset t.phases;
  t.last <- now_ns ()

let copy t =
  {
    t with
    calls = Array.copy t.calls;
    self_ns = Array.copy t.self_ns;
    phases = Hashtbl.copy t.phases;
  }

(* A workload phase (Andrew.setup, Sort_workload.run, ...): inclusive
   wall time, which contains the phase's vnode spans. *)
let phase t name f =
  let t0 = now_ns () in
  let v = f () in
  let n, ns = Option.value ~default:(0, 0) (Hashtbl.find_opt t.phases name) in
  Hashtbl.replace t.phases name (n + 1, ns + (now_ns () - t0));
  v

let charge t =
  let now = now_ns () in
  let dt = now - t.last in
  (match t.open_spans with
  | [] -> t.outside_ns <- t.outside_ns + dt
  | s :: _ -> t.self_ns.(s.op) <- t.self_ns.(s.op) + dt);
  t.last <- now

let enter t op =
  charge t;
  let s = { op } in
  t.calls.(op) <- t.calls.(op) + 1;
  t.open_spans <- s :: t.open_spans;
  s

let leave t s =
  charge t;
  t.open_spans <-
    (match t.open_spans with
    | x :: rest when x == s -> rest
    | l -> List.filter (fun x -> x != s) l)

(* Close the pass: charge the tail and drop spans of processes the engine
   left suspended when it stopped. *)
let finish t =
  charge t;
  t.open_spans <- []

let around t op f =
  let s = enter t op in
  match f () with
  | v ->
      leave t s;
      v
  | exception e ->
      leave t s;
      raise e

let wrap t (fs : Vfs.Fs.t) : Vfs.Fs.t =
  (* vnodes carry the file system they dispatch through, so every vnode
     handed out is re-pointed at the wrapper *)
  let rec w =
    {
      Vfs.Fs.fs_name = fs.fs_name;
      block_size = fs.block_size;
      root = (fun () -> around t other (fun () -> { (fs.root ()) with fs = w }));
      lookup =
        (fun ~dir name ->
          around t lookup (fun () -> { (fs.lookup ~dir name) with fs = w }));
      create =
        (fun ~dir name ->
          around t create_op (fun () -> { (fs.create ~dir name) with fs = w }));
      mkdir =
        (fun ~dir name ->
          around t other (fun () -> { (fs.mkdir ~dir name) with fs = w }));
      remove = (fun ~dir name -> around t remove (fun () -> fs.remove ~dir name));
      rmdir = (fun ~dir name -> around t other (fun () -> fs.rmdir ~dir name));
      rename =
        (fun ~fromdir fname ~todir tname ->
          around t other (fun () -> fs.rename ~fromdir fname ~todir tname));
      readdir = (fun vn -> around t other (fun () -> fs.readdir vn));
      getattr = (fun vn -> around t getattr (fun () -> fs.getattr vn));
      setattr = (fun vn ~size -> around t other (fun () -> fs.setattr vn ~size));
      fs_open = (fun vn mode -> around t fs_open (fun () -> fs.fs_open vn mode));
      fs_close =
        (fun vn mode -> around t fs_close (fun () -> fs.fs_close vn mode));
      read_block =
        (fun vn ~index -> around t read_block (fun () -> fs.read_block vn ~index));
      write_block =
        (fun vn ~index ~stamp ~len ->
          around t write_block (fun () -> fs.write_block vn ~index ~stamp ~len));
      fsync = (fun vn -> around t other (fun () -> fs.fsync vn));
    }
  in
  w
