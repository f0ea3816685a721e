type client_id = int

type mode = Read | Write

type state =
  | Closed
  | Closed_dirty
  | One_reader
  | One_rdr_dirty
  | Mult_readers
  | One_writer
  | Write_shared

let state_to_string = function
  | Closed -> "CLOSED"
  | Closed_dirty -> "CLOSED_DIRTY"
  | One_reader -> "ONE_READER"
  | One_rdr_dirty -> "ONE_RDR_DIRTY"
  | Mult_readers -> "MULT_READERS"
  | One_writer -> "ONE_WRITER"
  | Write_shared -> "WRITE_SHARED"

type callback = { target : client_id; writeback : bool; invalidate : bool }

type open_result = {
  cache_enabled : bool;
  version : Version.t;
  prev_version : Version.t;
  callbacks : callback list;
}

type centry = {
  c_client : client_id;
  mutable c_readers : int;
  mutable c_writers : int;
  mutable c_can_cache : bool;
}

type fentry = {
  f_file : int;
  mutable f_version : Version.t;
  mutable f_prev : Version.t;
  mutable f_clients : centry list;
  mutable f_last_writer : client_id option;
  mutable f_inconsistent : bool;
  mutable f_activity : int; (* op sequence number of the last open/close *)
}

type t = {
  entries : (int, fentry) Hashtbl.t;
  mutable counter : Version.t; (* global version source, Section 4.3.3 *)
  mutable op_seq : int; (* activity clock for reclamation *)
}

exception Table_full

(* Section 4.3.1: the table holds up to 1000 files *)
let max_entries = 1000

let create () = { entries = Hashtbl.create 64; counter = 0; op_seq = 0 }

let entry_count t = Hashtbl.length t.entries

let copy t =
  let entries = Hashtbl.create (max 64 (Hashtbl.length t.entries)) in
  Hashtbl.iter
    (fun file f ->
      Hashtbl.replace entries file
        {
          f_file = f.f_file;
          f_version = f.f_version;
          f_prev = f.f_prev;
          f_clients =
            List.map
              (fun c ->
                {
                  c_client = c.c_client;
                  c_readers = c.c_readers;
                  c_writers = c.c_writers;
                  c_can_cache = c.c_can_cache;
                })
              f.f_clients;
          f_last_writer = f.f_last_writer;
          f_inconsistent = f.f_inconsistent;
          f_activity = f.f_activity;
        })
    t.entries;
  { entries; counter = t.counter; op_seq = t.op_seq }

(* the paper's accounting: 68 bytes per entry; client info blocks are
   part of that figure for the single-client common case, so charge a
   modest increment for each additional client *)
let approx_bytes t =
  Hashtbl.fold
    (fun _ f acc -> acc + 68 + (24 * max 0 (List.length f.f_clients - 1)))
    t.entries 0

let find_client f client =
  List.find_opt (fun c -> c.c_client = client) f.f_clients

let open_clients f =
  List.filter (fun c -> c.c_readers > 0 || c.c_writers > 0) f.f_clients

let entry_idle f =
  List.for_all (fun c -> c.c_readers = 0 && c.c_writers = 0) f.f_clients

(* Reclaim closed entries to make room (Section 4.3.1): clean closed
   entries vanish silently; CLOSED_DIRTY ones require a write-back
   callback to the last writer. *)
let reclaim_for_space t =
  let reclaim_callbacks = ref [] in
  let victims =
    Hashtbl.fold
      (fun file f acc -> if entry_idle f then (file, f) :: acc else acc)
      t.entries []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (match victims with
  | [] -> raise Table_full
  | (file, f) :: _ ->
      (match f.f_last_writer with
      | Some w ->
          reclaim_callbacks :=
            [ { target = w; writeback = true; invalidate = true } ]
      | None -> ());
      Hashtbl.remove t.entries file);
  !reclaim_callbacks

let get_entry t file =
  match Hashtbl.find_opt t.entries file with
  | Some f -> (f, [])
  | None ->
      let reclaimed =
        if Hashtbl.length t.entries >= max_entries then reclaim_for_space t
        else []
      in
      t.counter <- t.counter + 1;
      let f =
        {
          f_file = file;
          f_version = t.counter;
          f_prev = t.counter;
          f_clients = [];
          f_last_writer = None;
          f_inconsistent = false;
          f_activity = t.op_seq;
        }
      in
      Hashtbl.replace t.entries file f;
      (f, reclaimed)

let merge_callbacks cbs =
  match cbs with
  | [] -> []
  | [ _ ] -> cbs
  | cbs ->
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun cb ->
      match Hashtbl.find_opt tbl cb.target with
      | None ->
          Hashtbl.replace tbl cb.target cb;
          order := cb.target :: !order
      | Some prev ->
          Hashtbl.replace tbl cb.target
            {
              target = cb.target;
              writeback = prev.writeback || cb.writeback;
              invalidate = prev.invalidate || cb.invalidate;
            })
    cbs;
  List.rev_map (fun target -> Hashtbl.find tbl target) !order

let open_file t ~file ~client ~mode =
  let f, reclaimed = get_entry t file in
  t.op_seq <- t.op_seq + 1;
  f.f_activity <- t.op_seq;
  let callbacks = ref reclaimed in
  let opening_write = mode = Write in
  let self = find_client f client in
  let others =
    List.filter
      (fun c -> c.c_client <> client && (c.c_readers > 0 || c.c_writers > 0))
      f.f_clients
  in
  (* will the file be write-shared once this open is in effect? *)
  let others_write = List.exists (fun c -> c.c_writers > 0) others in
  let self_writes =
    opening_write || match self with Some c -> c.c_writers > 0 | None -> false
  in
  let write_shared_after = others <> [] && (others_write || self_writes) in
  (* a possibly-dirty last writer other than the opener must return its
     blocks before anyone sees the file (CLOSED_DIRTY / ONE_RDR_DIRTY
     rows of Table 4-1) *)
  (match f.f_last_writer with
  | Some w when w <> client ->
      (* last_writer stays set until the server confirms the write-back
         (note_clean) or gives up on the client (forget_client) *)
      callbacks :=
        {
          target = w;
          writeback = true;
          invalidate = opening_write || write_shared_after;
        }
        :: !callbacks
  | Some w when w = client && opening_write ->
      (* the dirty blocks now belong to this new write-open *)
      f.f_last_writer <- None
  | Some _ | None -> ());
  (* entering WRITE_SHARED: disable every other cache-enabled client *)
  if write_shared_after then
    List.iter
      (fun c ->
        if c.c_can_cache then begin
          callbacks :=
            {
              target = c.c_client;
              writeback = c.c_writers > 0;
              invalidate = true;
            }
            :: !callbacks;
          c.c_can_cache <- false
        end)
      others;
  (* record the open *)
  let self =
    match self with
    | Some c -> c
    | None ->
        let c =
          {
            c_client = client;
            c_readers = 0;
            c_writers = 0;
            c_can_cache = not write_shared_after;
          }
        in
        f.f_clients <- f.f_clients @ [ c ];
        c
  in
  if write_shared_after then self.c_can_cache <- false;
  (match mode with
  | Read -> self.c_readers <- self.c_readers + 1
  | Write -> self.c_writers <- self.c_writers + 1);
  if opening_write then begin
    f.f_prev <- f.f_version;
    t.counter <- t.counter + 1;
    f.f_version <- t.counter;
    f.f_inconsistent <- false
  end;
  {
    cache_enabled = self.c_can_cache;
    version = f.f_version;
    prev_version = f.f_prev;
    callbacks = merge_callbacks (List.rev !callbacks);
  }

let drop_if_empty t f =
  if entry_idle f && Option.is_none f.f_last_writer && not f.f_inconsistent then
    Hashtbl.remove t.entries f.f_file

let prune_client f c =
  if c.c_readers = 0 && c.c_writers = 0 then
    f.f_clients <- List.filter (fun x -> x != c) f.f_clients

let close_file t ~file ~client ~mode =
  match Hashtbl.find_opt t.entries file with
  | None -> invalid_arg "State_table.close_file: file has no entry"
  | Some f -> (
      match find_client f client with
      | None -> invalid_arg "State_table.close_file: client has no open"
      | Some c ->
          t.op_seq <- t.op_seq + 1;
          f.f_activity <- t.op_seq;
          (match mode with
          | Read ->
              if c.c_readers <= 0 then
                invalid_arg "State_table.close_file: no read open";
              c.c_readers <- c.c_readers - 1
          | Write ->
              if c.c_writers <= 0 then
                invalid_arg "State_table.close_file: no write open";
              c.c_writers <- c.c_writers - 1;
              (* final write close by a caching client: it may still
                 hold dirty blocks (Table 4-1, last two rows) *)
              if c.c_writers = 0 && c.c_can_cache then
                f.f_last_writer <- Some client);
          prune_client f c;
          drop_if_empty t f)

let note_clean t ~file ~client =
  match Hashtbl.find_opt t.entries file with
  | None -> ()
  | Some f ->
      if f.f_last_writer = Some client then begin
        f.f_last_writer <- None;
        drop_if_empty t f
      end

let remove_file t ~file = Hashtbl.remove t.entries file

let forget_client t client =
  let files = Hashtbl.fold (fun file _ acc -> file :: acc) t.entries [] in
  List.iter
    (fun file ->
      match Hashtbl.find_opt t.entries file with
      | None -> ()
      | Some f ->
          if f.f_last_writer = Some client then begin
            f.f_last_writer <- None;
            f.f_inconsistent <- true (* dirty data died with the client *)
          end;
          (* an active cache-enabled writer may also have held dirty data *)
          (match find_client f client with
          | Some c when c.c_writers > 0 && c.c_can_cache ->
              f.f_inconsistent <- true
          | Some _ | None -> ());
          f.f_clients <-
            List.filter (fun c -> c.c_client <> client) f.f_clients;
          if
            entry_idle f
            && Option.is_none f.f_last_writer
            && not f.f_inconsistent
          then Hashtbl.remove t.entries file)
    files

let was_inconsistent t ~file =
  match Hashtbl.find_opt t.entries file with
  | None -> false
  | Some f -> f.f_inconsistent

let state t ~file =
  match Hashtbl.find_opt t.entries file with
  | None -> Closed
  | Some f -> (
      let opens = open_clients f in
      let writers = List.filter (fun c -> c.c_writers > 0) opens in
      match (opens, writers) with
      | [], _ -> if Option.is_none f.f_last_writer then Closed else Closed_dirty
      | [ c ], [] ->
          if f.f_last_writer = Some c.c_client then One_rdr_dirty
          else One_reader
      | [ _ ], [ _ ] -> One_writer
      | _ :: _ :: _, [] -> Mult_readers
      | _, _ :: _ -> Write_shared)

let version_of t ~file =
  match Hashtbl.find_opt t.entries file with
  | None -> 0
  | Some f -> f.f_version

let can_cache t ~file ~client =
  match Hashtbl.find_opt t.entries file with
  | None -> false
  | Some f -> (
      match find_client f client with
      | None -> false
      | Some c -> c.c_can_cache)

let openers t ~file =
  match Hashtbl.find_opt t.entries file with
  | None -> []
  | Some f ->
      open_clients f
      |> List.map (fun c -> (c.c_client, c.c_readers, c.c_writers))
      |> List.sort compare

let last_writer t ~file =
  match Hashtbl.find_opt t.entries file with
  | None -> None
  | Some f -> f.f_last_writer

let files t =
  Hashtbl.fold (fun file _ acc -> file :: acc) t.entries [] |> List.sort compare

let least_recently_active_open t =
  Hashtbl.fold
    (fun file f acc ->
      if entry_idle f then acc
      else
        match acc with
        | Some (_, best) when best.f_activity <= f.f_activity -> acc
        | Some _ | None -> Some (file, f))
    t.entries None
  |> Option.map (fun (file, f) ->
         (file, List.map (fun c -> c.c_client) (open_clients f)))

(* ---- crash recovery ---- *)

type client_report = {
  r_client : client_id;
  r_file : int;
  r_readers : int;
  r_writers : int;
  r_can_cache : bool;
  r_dirty : bool;
  r_version : Version.t;
}

let to_reports t =
  Hashtbl.fold
    (fun file f acc ->
      let open_reports =
        List.map
          (fun c ->
            {
              r_client = c.c_client;
              r_file = file;
              r_readers = c.c_readers;
              r_writers = c.c_writers;
              r_can_cache = c.c_can_cache;
              r_dirty =
                (c.c_can_cache && c.c_writers > 0)
                || f.f_last_writer = Some c.c_client;
              r_version = f.f_version;
            })
          f.f_clients
      in
      let lw_report =
        match f.f_last_writer with
        | Some w when Option.is_none (find_client f w) ->
            [
              {
                r_client = w;
                r_file = file;
                r_readers = 0;
                r_writers = 0;
                r_can_cache = true;
                r_dirty = true;
                r_version = f.f_version;
              };
            ]
        | Some _ | None -> []
      in
      open_reports @ lw_report @ acc)
    t.entries []
  |> List.sort compare

let merge_report t r =
  let f =
    match Hashtbl.find_opt t.entries r.r_file with
    | Some f -> f
    | None ->
        let f =
          {
            f_file = r.r_file;
            f_version = r.r_version;
            f_prev = r.r_version;
            f_clients = [];
            f_last_writer = None;
            f_inconsistent = false;
            f_activity = t.op_seq;
          }
        in
        Hashtbl.replace t.entries r.r_file f;
        f
  in
  f.f_version <- max f.f_version r.r_version;
  f.f_prev <- f.f_version;
  if r.r_readers > 0 || r.r_writers > 0 then begin
    (* a retransmitted reopen must not double-count *)
    f.f_clients <- List.filter (fun c -> c.c_client <> r.r_client) f.f_clients;
    f.f_clients <-
      f.f_clients
      @ [
          {
            c_client = r.r_client;
            c_readers = r.r_readers;
            c_writers = r.r_writers;
            c_can_cache = r.r_can_cache;
          };
        ]
  end;
  if r.r_dirty && r.r_writers = 0 then f.f_last_writer <- Some r.r_client;
  t.counter <- max t.counter f.f_version

let of_reports reports =
  let t = create () in
  List.iter (fun r -> merge_report t r) reports;
  let empty =
    Hashtbl.fold
      (fun file f acc ->
        if entry_idle f && Option.is_none f.f_last_writer then file :: acc
        else acc)
      t.entries []
  in
  List.iter (fun file -> Hashtbl.remove t.entries file) empty;
  t

let equal a b =
  let norm t =
    files t
    |> List.map (fun file ->
           (file, version_of t ~file, openers t ~file, last_writer t ~file))
  in
  norm a = norm b
