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
  timers : Eventq.t;
      (* Watchdog timers (RPC timeouts and the like) live in their own
         heap: they are numerous, long-dated and almost always dead by
         the time they fire, and in the main heap they deepened every
         sift the busy events pay for. Both heaps draw from the single
         [seq] counter, and dispatch merges them by comparing full
         (time, seq) keys, so the execution order is exactly what a
         single heap would produce. *)
}

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let create () =
  let t =
    {
      now = [| 0.0 |];
      seq = 0;
      stopped = false;
      events = 0;
      queue = Eventq.create ();
      timers = Eventq.create ();
    }
  in
  (* registered at creation, so the gauges exist whenever a registry is
     installed before the world is built (Driver.run arranges this).
     sim_events_total is a cumulative poll rather than a counter bumped
     per event: the engine keeps its own native count (below), so the
     dispatch loop pays nothing for metrics even when a registry is
     installed. *)
  Obs.Metrics.register_poll "sim_event_queue_depth" (fun () ->
      float_of_int (Eventq.length t.queue + Eventq.length t.timers));
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

(* identical semantics to [after], but queued on the timer heap *)
let timer t delay fn =
  if delay < 0.0 then invalid_arg "Engine.timer: negative delay";
  let seq = t.seq in
  t.seq <- seq + 1;
  Eventq.push t.timers ~time:(t.now.(0) +. delay) ~seq fn

exception Process_failure of string * exn * Printexc.raw_backtrace

let () =
  Printexc.register_printer (function
    | Process_failure (name, e, _) ->
        Some
          (Printf.sprintf "process %S failed with %s" name
             (Printexc.to_string e))
    | _ -> None)

let run_process name fn =
  let open Effect.Deep in
  match_with fn ()
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          raise (Process_failure (name, e, bt)));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (b, _) continuation) ->
                  register (fun v -> continue k v))
          | _ -> None);
    }

let spawn t ?(name = "anon") fn = after t 0.0 (fun () -> run_process name fn)

let stop t = t.stopped <- true

(* The heap holding the globally earliest event, by full (time, seq)
   key, so the merged order matches what a single heap would produce.
   Returns the (empty) timer heap when both are empty — the dispatch
   loop's pop_until turns that into its stop sentinel. *)
let next_queue t =
  if Eventq.is_empty t.queue then t.timers
  else if Eventq.is_empty t.timers || Eventq.precedes t.queue t.timers then
    t.queue
  else t.timers

(* One out-of-line call per dispatched event: the event's closure.
   next_queue's precedes and pop_until, which advances the clock cell
   unboxed, inline here along with pop_fn's sift (the root dune file
   says why an -opaque build would keep them as calls) — the loop
   itself allocates nothing and compares nothing it doesn't need. *)
let dispatch_until t limit =
  t.stopped <- false;
  let continue_loop = ref true in
  while !continue_loop do
    if t.stopped then continue_loop := false
    else begin
      let fn = Eventq.pop_until (next_queue t) limit t.now in
      if fn == Eventq.nop then continue_loop := false
      else begin
        t.events <- t.events + 1;
        fn ()
      end
    end
  done

let run t = dispatch_until t infinity

let run_until t limit =
  dispatch_until t limit;
  if t.now.(0) < limit then t.now.(0) <- limit

let suspend (_t : t) register = Effect.perform (Suspend register)

let sleep t d =
  if d < 0.0 then invalid_arg "Engine.sleep: negative duration";
  suspend t (fun resume -> after t d (fun () -> resume ()))

let yield t = sleep t 0.0
