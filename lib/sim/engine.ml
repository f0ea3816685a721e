(* A FIFO of the watchdog events that share one delay, in a ring whose
   capacity is a power of two. Each is queued at [now + delay], and
   [now] never decreases while the engine exists ([at] refuses the
   past, dispatch and [run_until] only move the clock forward), so
   with [delay] fixed the times are non-decreasing in push order
   (float addition of a constant is monotone) and the seqs strictly
   increasing: a lane is already sorted by (time, seq), and its head
   is its earliest event. *)
type lane = {
  delay : float;
  mutable times : float array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable head : int;
  mutable count : int;
}

(* A process fiber's current job. A job that returns parks its fiber,
   and the next [spawn] resumes it with a new job. *)
type fiber = { mutable name : string; mutable job : unit -> unit }

type t = {
  now : float array;
  (* one cell, not a mutable float field: in a mixed record every store
     to a mutable float field allocates a fresh box, and the dispatch
     loop stores the clock once per event. A float array cell is
     unboxed storage, so advancing the clock allocates nothing. *)
  mutable seq : int;
  mutable stopped : bool;
  mutable events : int; (* events executed since creation *)
  queue : Eventq.t;
  mutable lanes : lane array;
      (* Watchdog timers (RPC timeouts and the like), one lane per
         distinct delay: they are numerous, long-dated and almost
         always dead by the time they fire, and in a heap they
         deepened every sift. The heap and the lanes draw from the
         single [seq] counter, and dispatch takes whichever of the
         heap's top and the earliest lane head has the smaller
         (time, seq) key, so the execution order is exactly what a
         single heap would produce. *)
  mutable first : lane;
      (* the lane with the earliest head; when it is empty, every lane
         is *)
  mutable idle : (fiber * (unit, unit) Effect.Deep.continuation) list;
      (* parked process fibers, discontinued when dispatch returns *)
  mutable parked : int; (* length of [idle] *)
}

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : float -> unit Effect.t
  | Park : unit Effect.t

let new_lane delay cap =
  {
    delay;
    times = Array.make cap 0.0;
    seqs = Array.make cap 0;
    fns = Array.make cap Eventq.nop;
    head = 0;
    count = 0;
  }

let create () =
  let t =
    {
      now = [| 0.0 |];
      seq = 0;
      stopped = false;
      events = 0;
      queue = Eventq.create ();
      lanes = [||];
      first = new_lane 0.0 1;
      idle = [];
      parked = 0;
    }
  in
  (* registered at creation, so the gauges exist whenever a registry is
     installed before the world is built (Driver.run arranges this).
     sim_events_total is a cumulative poll rather than a counter bumped
     per event: the engine keeps its own native count (below), so the
     dispatch loop pays nothing for metrics even when a registry is
     installed. *)
  Obs.Metrics.register_poll "sim_event_queue_depth" (fun () ->
      float_of_int
        (Array.fold_left
           (fun n l -> n + l.count)
           (Eventq.length t.queue) t.lanes));
  Obs.Metrics.register_poll ~cumulative:true "sim_events_total" (fun () ->
      float_of_int t.events);
  t

let now t = t.now.(0)
let events_executed t = t.events

let at t time fn =
  if time < t.now.(0) then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is before now %g" time t.now.(0));
  let seq = t.seq in
  t.seq <- seq + 1;
  Eventq.push t.queue ~time ~seq fn

let after t delay fn = at t (t.now.(0) +. delay) fn

(* both lanes non-empty: does [a]'s head order before [b]'s? *)
let lane_before a b =
  let ta = Array.unsafe_get a.times a.head
  and tb = Array.unsafe_get b.times b.head in
  ta < tb
  || ta = tb
     && Array.unsafe_get a.seqs a.head < Array.unsafe_get b.seqs b.head

let lane_for t delay =
  let lanes = t.lanes in
  let n = Array.length lanes in
  let i = ref 0 in
  while !i < n && (Array.unsafe_get lanes !i).delay <> delay do
    incr i
  done;
  if !i < n then Array.unsafe_get lanes !i
  else begin
    let l = new_lane delay 64 in
    t.lanes <- Array.append lanes [| l |];
    l
  end

let grow_lane l =
  let cap = Array.length l.times in
  let bigger = new_lane l.delay (2 * cap) in
  (* unroll the ring: the lane is full, head first *)
  let tail = cap - l.head in
  Array.blit l.times l.head bigger.times 0 tail;
  Array.blit l.times 0 bigger.times tail l.head;
  Array.blit l.seqs l.head bigger.seqs 0 tail;
  Array.blit l.seqs 0 bigger.seqs tail l.head;
  Array.blit l.fns l.head bigger.fns 0 tail;
  Array.blit l.fns 0 bigger.fns tail l.head;
  l.times <- bigger.times;
  l.seqs <- bigger.seqs;
  l.fns <- bigger.fns;
  l.head <- 0

(* identical semantics to [after], but queued on the delay's lane *)
let timer t delay fn =
  if delay < 0.0 then invalid_arg "Engine.timer: negative delay";
  let seq = t.seq in
  t.seq <- seq + 1;
  let l = lane_for t delay in
  if l.count = Array.length l.times then grow_lane l;
  let i = (l.head + l.count) land (Array.length l.times - 1) in
  Array.unsafe_set l.times i (t.now.(0) +. delay);
  Array.unsafe_set l.seqs i seq;
  Array.unsafe_set l.fns i fn;
  l.count <- l.count + 1;
  (* a lane's head changes on a push only if the lane was empty *)
  if l.count = 1 && (t.first.count = 0 || lane_before l t.first) then
    t.first <- l

(* after a pop from [t.first]: find the lane with the earliest head *)
let refresh_first t =
  let lanes = t.lanes in
  let best = ref t.first in
  for i = 0 to Array.length lanes - 1 do
    let l = Array.unsafe_get lanes i in
    if l.count > 0 && (!best.count = 0 || lane_before l !best) then best := l
  done;
  t.first <- !best

exception Process_failure of string * exn * Printexc.raw_backtrace

let () =
  Printexc.register_printer (function
    | Process_failure (name, e, _) ->
        Some
          (Printf.sprintf "process %S failed with %s" name
             (Printexc.to_string e))
    | _ -> None)

(* raised into a parked fiber to end it *)
exception Retired

(* The body of every process fiber: run the current job, park, and run
   the job the fiber is resumed with. Reuse spares each spawn a fresh
   fiber and the growth of its stack. Past [max_parked] idle fibers a
   finished one ends instead: a sort run overflowing the client cache
   has thousands of writers in flight at once, and keeping a parked
   fiber for each grew the peak heap 14% for no speed. *)
let max_parked = 64

let rec work t f =
  f.job ();
  if t.parked < max_parked then begin
    f.job <- Eventq.nop;
    Effect.perform Park;
    work t f
  end

let start t name fn =
  let open Effect.Deep in
  match t.idle with
  | (f, k) :: rest ->
      t.idle <- rest;
      t.parked <- t.parked - 1;
      f.name <- name;
      f.job <- fn;
      continue k ()
  | [] ->
      let f = { name; job = fn } in
      match_with (work t) f
        {
          retc = (fun () -> ());
          exnc =
            (function
            | Retired -> ()
            | e ->
                let bt = Printexc.get_raw_backtrace () in
                raise (Process_failure (f.name, e, bt)));
          effc =
            (fun (type b) (eff : b Effect.t) ->
              match eff with
              | Suspend register ->
                  Some
                    (fun (k : (b, _) continuation) ->
                      register (fun v -> continue k v))
              | Sleep d ->
                  Some
                    (fun (k : (b, _) continuation) ->
                      after t d (fun () -> continue k ()))
              | Park ->
                  Some
                    (fun (k : (b, _) continuation) ->
                      t.idle <- (f, k) :: t.idle;
                      t.parked <- t.parked + 1)
              | _ -> None);
        }

let spawn t ?(name = "anon") fn = after t 0.0 (fun () -> start t name fn)

let stop t = t.stopped <- true

let rec retire t =
  match t.idle with
  | [] -> ()
  | (_, k) :: rest ->
      t.idle <- rest;
      t.parked <- t.parked - 1;
      Effect.Deep.discontinue k Retired;
      retire t

(* [l] non-empty: does its head order before the heap's top? *)
let lane_leads q l =
  if Eventq.is_empty q then true
  else
    let tl = Array.unsafe_get l.times l.head and tq = Eventq.min_time q in
    tl < tq || (tl = tq && Array.unsafe_get l.seqs l.head < Eventq.min_seq q)

(* The next event by full (time, seq) key: the earliest lane's head if
   it orders before the heap's top, else the heap's top. Returns
   [Eventq.nop] when neither is due by [limit]. *)
let next t limit =
  let l = t.first in
  if l.count > 0 && lane_leads t.queue l then begin
    let h = l.head in
    let time = Array.unsafe_get l.times h in
    if time > limit then Eventq.nop
    else begin
      t.now.(0) <- time;
      let fn = Array.unsafe_get l.fns h in
      Array.unsafe_set l.fns h Eventq.nop;
      l.head <- (h + 1) land (Array.length l.times - 1);
      l.count <- l.count - 1;
      refresh_first t;
      fn
    end
  end
  else Eventq.pop_until t.queue limit t.now

(* One out-of-line call per dispatched event: the event's closure.
   next's key comparison and pops, which advance the clock cell
   unboxed, inline here along with pop_fn's sift (the root dune file
   says why an -opaque build would keep them as calls) — the loop
   itself allocates nothing and compares nothing it doesn't need. *)
let dispatch_loop t limit =
  t.stopped <- false;
  let continue_loop = ref true in
  while !continue_loop do
    if t.stopped then continue_loop := false
    else begin
      let fn = next t limit in
      if fn == Eventq.nop then continue_loop := false
      else begin
        t.events <- t.events + 1;
        fn ()
      end
    end
  done

let dispatch_until t limit =
  match dispatch_loop t limit with
  | () -> retire t
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      retire t;
      Printexc.raise_with_backtrace e bt

let run t = dispatch_until t infinity

let run_until t limit =
  dispatch_until t limit;
  if t.now.(0) < limit then t.now.(0) <- limit

let suspend (_t : t) register = Effect.perform (Suspend register)

let sleep (_t : t) d =
  if d < 0.0 then invalid_arg "Engine.sleep: negative duration";
  Effect.perform (Sleep d)
