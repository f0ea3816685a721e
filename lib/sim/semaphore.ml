type t = {
  engine : Engine.t;
  mutable units : int;
  waiters : (unit -> unit) Queue.t;
}

let create engine n =
  if n < 0 then invalid_arg "Semaphore.create: negative count";
  { engine; units = n; waiters = Queue.create () }

let acquire t =
  if t.units > 0 then t.units <- t.units - 1
  else
    Engine.suspend t.engine (fun resume -> Queue.push resume t.waiters)

let release t =
  if Queue.is_empty t.waiters then t.units <- t.units + 1
  else
    let w = Queue.pop t.waiters in
    w ()

let with_unit t fn =
  acquire t;
  match fn () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e
