type t = {
  engine : Engine.t;
  name : string;
  mutable held : int;
  waiters : (unit -> unit) Queue.t;
      (* each waiting job's booking of its hold: see [use] *)
  (* float array cells, not mutable float fields: in a mixed record
     every store to a mutable float field boxes, and these are written
     on every acquire/release/reserve on the hot RPC and disk paths *)
  busy : float array; (* [0] accumulated; [1] busy-since (held > 0) *)
  reserved : float array; (* [0] reserved-until (reserve mode) *)
}

let create engine name =
  let t =
    {
      engine;
      name;
      held = 0;
      waiters = Queue.create ();
      busy = [| 0.0; 0.0 |];
      reserved = [| 0.0 |];
    }
  in
  (* busy time is monotone, so its sampled series holds per-bin deltas
     (utilization once divided by the bin width); queue depth is a level *)
  Obs.Metrics.register_poll
    ~labels:[ ("resource", name) ]
    ~cumulative:true "sim_resource_busy_seconds" (fun () ->
      if t.held > 0 then t.busy.(0) +. (Engine.now t.engine -. t.busy.(1))
      else t.busy.(0));
  Obs.Metrics.register_poll
    ~labels:[ ("resource", name) ]
    "sim_resource_queue_depth"
    (fun () -> float_of_int (Queue.length t.waiters));
  t

let name t = t.name

let note_acquired t =
  if t.held = 0 then t.busy.(1) <- Engine.now t.engine;
  t.held <- t.held + 1

let note_released t =
  t.held <- t.held - 1;
  if t.held = 0 then t.busy.(0) <- t.busy.(0) +. (Engine.now t.engine -. t.busy.(1))

(* Hand the unit to the longest waiter and book its wake-up [dur] from
   now: the event, time and seq its own sleep would have queued had it
   been resumed here to acquire and sleep. *)
let release t =
  note_released t;
  if not (Queue.is_empty t.waiters) then begin
    let book = Queue.pop t.waiters in
    note_acquired t;
    book ()
  end

(* One suspension covers the wait and the hold: [release] books this
   job's wake-up for when its hold is over. Out of line because
   ocamlopt without flambda never inlines a function that builds a
   closure, and [use] not inlined at its call sites cost a null RPC
   round trip (four uses of a free CPU) 4 more minor words. *)
let wait t dur =
  Engine.suspend_then_sleep t.engine dur (fun book -> Queue.push book t.waiters)

let use t dur =
  if t.held = 0 then begin
    note_acquired t;
    match Engine.sleep t.engine dur with
    | () -> release t
    | exception e ->
        release t;
        raise e
  end
  else begin
    wait t dur;
    release t
  end

let reserve t dur =
  if dur < 0.0 then invalid_arg "Resource.reserve: negative duration";
  let now = Engine.now t.engine in
  let start = if t.reserved.(0) > now then t.reserved.(0) else now in
  t.reserved.(0) <- start +. dur;
  (* busy time is committed at reservation; reservations are issued in
     simulation order and back-to-back under load, so for the sub-ms
     holds this is used for, the sampled utilization series is
     indistinguishable from held/released accounting *)
  t.busy.(0) <- t.busy.(0) +. dur;
  start +. dur

let busy_time t =
  if t.held > 0 then t.busy.(0) +. (Engine.now t.engine -. t.busy.(1))
  else t.busy.(0)
