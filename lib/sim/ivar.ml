type 'a t = {
  engine : Engine.t;
  mutable value : 'a option;
  mutable waiters : ('a -> unit) list;
}

let create engine = { engine; value = None; waiters = [] }

let is_full t = Option.is_some t.value

let fill t v =
  match t.value with
  | Some _ -> invalid_arg "Ivar.fill: already filled"
  | None ->
      t.value <- Some v;
      let waiters = List.rev t.waiters in
      t.waiters <- [];
      List.iter (fun w -> w v) waiters

let read t =
  match t.value with
  | Some v -> v
  | None ->
      Engine.suspend t.engine (fun resume ->
          t.waiters <- resume :: t.waiters)

let read_timeout t timeout =
  match t.value with
  | Some v -> Some v
  | None ->
      Engine.suspend t.engine (fun resume ->
          let fired = ref false in
          let once r =
            if not !fired then begin
              fired := true;
              resume r
            end
          in
          t.waiters <- (fun v -> once (Some v)) :: t.waiters;
          Engine.timer t.engine timeout (fun () -> once None))
