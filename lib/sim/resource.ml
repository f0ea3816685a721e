type t = {
  engine : Engine.t;
  name : string;
  capacity : int;
  mutable held : int;
  waiters : (unit -> unit) Queue.t;
  (* float array cells, not mutable float fields: in a mixed record
     every store to a mutable float field boxes, and these are written
     on every acquire/release/reserve on the hot RPC and disk paths *)
  busy : float array; (* [0] accumulated; [1] busy-since (held > 0) *)
  reserved : float array; (* [0] reserved-until (reserve-mode, cap 1) *)
}

let create engine ?(capacity = 1) name =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be > 0";
  let t =
    {
      engine;
      name;
      capacity;
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

let acquire t =
  if t.held < t.capacity then note_acquired t
  else begin
    Engine.suspend t.engine (fun resume -> Queue.push resume t.waiters);
    note_acquired t
  end

let release t =
  note_released t;
  if not (Queue.is_empty t.waiters) then
    let w = Queue.pop t.waiters in
    w ()

let use t dur =
  acquire t;
  match Engine.sleep t.engine dur with
  | () -> release t
  | exception e ->
      release t;
      raise e

let reserve t dur =
  if t.capacity <> 1 then
    invalid_arg "Resource.reserve: only capacity-1 resources";
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
