module St = Spritely.State_table

type mode = St.mode

type centry = { readers : int; writers : int; can_cache : bool }

type fentry = {
  version : int;
  prev : int;
  clients : (int * centry) list; (* open clients only *)
  last_writer : int option;
  inconsistent : bool;
}

type t = { files : (int * fentry) list; counter : int }

let empty = { files = []; counter = 0 }

type expected_open = {
  x_cache_enabled : bool;
  x_version : int;
  x_prev_version : int;
  x_callbacks : St.callback list;
}

let find t file = List.assoc_opt file t.files

let put t file f =
  { t with files = List.sort compare ((file, f) :: List.remove_assoc file t.files) }

let drop t file = { t with files = List.remove_assoc file t.files }

let entry_idle f = f.clients = []

let drop_if_empty t file f =
  if entry_idle f && f.last_writer = None && not f.inconsistent then drop t file
  else put t file f

(* merge callbacks per target, OR-ing the flags, then sort by target:
   the canonical form both implementations are compared in *)
let merge_callbacks cbs =
  let rec merge acc = function
    | [] -> acc
    | cb :: rest ->
        let same, other =
          List.partition (fun c -> c.St.target = cb.St.target) acc
        in
        let merged =
          List.fold_left
            (fun a c ->
              {
                St.target = a.St.target;
                writeback = a.St.writeback || c.St.writeback;
                invalidate = a.St.invalidate || c.St.invalidate;
              })
            cb same
        in
        merge (merged :: other) rest
  in
  merge [] cbs |> List.sort compare

let open_file t ~file ~client ~mode =
  (* entry creation draws a fresh version from the global counter *)
  let t, f =
    match find t file with
    | Some f -> (t, f)
    | None ->
        let counter = t.counter + 1 in
        let f =
          {
            version = counter;
            prev = counter;
            clients = [];
            last_writer = None;
            inconsistent = false;
          }
        in
        ({ t with counter }, f)
  in
  let opening_write = mode = St.Write in
  let self = List.assoc_opt client f.clients in
  let others =
    List.filter
      (fun (c, e) -> c <> client && (e.readers > 0 || e.writers > 0))
      f.clients
  in
  let others_write = List.exists (fun (_, e) -> e.writers > 0) others in
  let self_writes =
    opening_write || match self with Some e -> e.writers > 0 | None -> false
  in
  let write_shared_after = others <> [] && (others_write || self_writes) in
  (* a possibly-dirty last writer other than the opener must write back *)
  let lw_callbacks, f =
    match f.last_writer with
    | Some w when w <> client ->
        ( [
            {
              St.target = w;
              writeback = true;
              invalidate = opening_write || write_shared_after;
            };
          ],
          f )
    | Some w when w = client && opening_write ->
        ([], { f with last_writer = None })
    | Some _ | None -> ([], f)
  in
  (* entering WRITE_SHARED disables every other cache-enabled client *)
  let ws_callbacks, clients =
    if write_shared_after then
      List.fold_left
        (fun (cbs, clients) (c, e) ->
          if c <> client && (e.readers > 0 || e.writers > 0) && e.can_cache then
            ( {
                St.target = c;
                writeback = e.writers > 0;
                invalidate = true;
              }
              :: cbs,
              (c, { e with can_cache = false })
              :: List.remove_assoc c clients )
          else (cbs, clients))
        ([], f.clients) f.clients
    else ([], f.clients)
  in
  let self_entry =
    match List.assoc_opt client clients with
    | Some e -> if write_shared_after then { e with can_cache = false } else e
    | None -> { readers = 0; writers = 0; can_cache = not write_shared_after }
  in
  let self_entry =
    match mode with
    | St.Read -> { self_entry with readers = self_entry.readers + 1 }
    | St.Write -> { self_entry with writers = self_entry.writers + 1 }
  in
  let clients = (client, self_entry) :: List.remove_assoc client clients in
  let t, f =
    if opening_write then
      let counter = t.counter + 1 in
      ( { t with counter },
        {
          f with
          clients;
          prev = f.version;
          version = counter;
          inconsistent = false;
        } )
    else (t, { f with clients })
  in
  let t = put t file f in
  ( t,
    {
      x_cache_enabled = self_entry.can_cache;
      x_version = f.version;
      x_prev_version = f.prev;
      x_callbacks = merge_callbacks (lw_callbacks @ ws_callbacks);
    } )

let close_file t ~file ~client ~mode =
  match find t file with
  | None -> invalid_arg "Model.close_file: no entry"
  | Some f -> (
      match List.assoc_opt client f.clients with
      | None -> invalid_arg "Model.close_file: client has no open"
      | Some e ->
          let e =
            match mode with
            | St.Read ->
                if e.readers <= 0 then invalid_arg "Model.close_file: no read";
                { e with readers = e.readers - 1 }
            | St.Write ->
                if e.writers <= 0 then invalid_arg "Model.close_file: no write";
                { e with writers = e.writers - 1 }
          in
          (* a final write close by a cache-enabled client may leave
             dirty blocks behind (Table 4-1, last two rows) *)
          let last_writer =
            if mode = St.Write && e.writers = 0 && e.can_cache then Some client
            else f.last_writer
          in
          let clients =
            if e.readers = 0 && e.writers = 0 then
              List.remove_assoc client f.clients
            else (client, e) :: List.remove_assoc client f.clients
          in
          drop_if_empty t file { f with clients; last_writer })

let note_clean t ~file ~client =
  match find t file with
  | None -> t
  | Some f ->
      if f.last_writer = Some client then
        drop_if_empty t file { f with last_writer = None }
      else t

let remove_file t ~file = drop t file

let forget_client t client =
  List.fold_left
    (fun t (file, _) ->
      match find t file with
      | None -> t
      | Some f ->
          let f =
            if f.last_writer = Some client then
              { f with last_writer = None; inconsistent = true }
            else f
          in
          let f =
            match List.assoc_opt client f.clients with
            | Some e when e.writers > 0 && e.can_cache ->
                { f with inconsistent = true }
            | Some _ | None -> f
          in
          let f = { f with clients = List.remove_assoc client f.clients } in
          drop_if_empty t file f)
    t t.files

let apply t op =
  match op with
  | Invariant.Open (c, f, m) ->
      let t, x = open_file t ~file:f ~client:c ~mode:m in
      (t, Some x)
  | Invariant.Close (c, f, m) -> (close_file t ~file:f ~client:c ~mode:m, None)
  | Invariant.Note_clean (c, f) -> (note_clean t ~file:f ~client:c, None)
  | Invariant.Forget c -> (forget_client t c, None)
  | Invariant.Remove f -> (remove_file t ~file:f, None)

let legal t op =
  match op with
  | Invariant.Open _ -> true
  | Invariant.Close (c, f, m) -> (
      match find t f with
      | None -> false
      | Some fe -> (
          match List.assoc_opt c fe.clients with
          | None -> false
          | Some e -> ( match m with St.Read -> e.readers > 0 | St.Write -> e.writers > 0)))
  | Invariant.Note_clean (c, f) -> (
      match find t f with None -> false | Some fe -> fe.last_writer = Some c)
  | Invariant.Forget c ->
      List.exists
        (fun (_, fe) ->
          fe.last_writer = Some c || List.mem_assoc c fe.clients)
        t.files
  | Invariant.Remove f -> find t f <> None

let state f =
  let writers = List.filter (fun (_, e) -> e.writers > 0) f.clients in
  match (f.clients, writers) with
  | [], _ -> if f.last_writer = None then St.Closed else St.Closed_dirty
  | [ (c, _) ], [] ->
      if f.last_writer = Some c then St.One_rdr_dirty else St.One_reader
  | [ _ ], [ _ ] -> St.One_writer
  | _ :: _ :: _, [] -> St.Mult_readers
  | _, _ :: _ -> St.Write_shared

let observe t ~clients ~files =
  List.init files (fun file ->
      match find t file with
      | None ->
          ( file,
            {
              Invariant.o_present = false;
              o_state = St.Closed;
              o_version = 0;
              o_openers = [];
              o_can_cache = List.init clients (fun _ -> false);
              o_last_writer = None;
              o_inconsistent = false;
            } )
      | Some f ->
          ( file,
            {
              Invariant.o_present = true;
              o_state = state f;
              o_version = f.version;
              o_openers =
                f.clients
                |> List.map (fun (c, e) -> (c, e.readers, e.writers))
                |> List.sort compare;
              o_can_cache =
                List.init clients (fun c ->
                    match List.assoc_opt c f.clients with
                    | None -> false
                    | Some e -> e.can_cache);
              o_last_writer = f.last_writer;
              o_inconsistent = f.inconsistent;
            } ))
