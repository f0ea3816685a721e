module St = Spritely.State_table

type mode = St.mode

type op =
  | Open of int * int * mode
  | Close of int * int * mode
  | Note_clean of int * int
  | Forget of int
  | Remove of int

let mode_to_string = function St.Read -> "r" | St.Write -> "w"

let op_to_string = function
  | Open (c, f, m) -> Printf.sprintf "open(c%d,f%d,%s)" c f (mode_to_string m)
  | Close (c, f, m) -> Printf.sprintf "close(c%d,f%d,%s)" c f (mode_to_string m)
  | Note_clean (c, f) -> Printf.sprintf "clean(c%d,f%d)" c f
  | Forget c -> Printf.sprintf "forget(c%d)" c
  | Remove f -> Printf.sprintf "remove(f%d)" f

let ops_to_string ops = String.concat "; " (List.map op_to_string ops)

type file_obs = {
  o_present : bool;
  o_state : St.state;
  o_version : int;
  o_openers : (int * int * int) list;
  o_can_cache : bool list;
  o_last_writer : int option;
  o_inconsistent : bool;
}

type obs = (int * file_obs) list

type violation = string * string

let writers fo = List.filter (fun (_, _, w) -> w > 0) fo.o_openers
let any_cachable fo = List.exists (fun b -> b) fo.o_can_cache

let check_state ~entry_count obs =
  let out = ref [] in
  let bad inv fmt = Printf.ksprintf (fun d -> out := (inv, d) :: !out) fmt in
  if entry_count > St.max_entries then
    bad "table-bound" "entry_count %d exceeds max_entries %d" entry_count
      St.max_entries;
  List.iter
    (fun (file, fo) ->
      (* at most one writer whenever any client may still cache *)
      if any_cachable fo && List.length (writers fo) > 1 then
        bad "writer-exclusion" "f%d: %d writers while a client may cache" file
          (List.length (writers fo));
      (* WRITE_SHARED means caching is off everywhere *)
      if fo.o_state = St.Write_shared && any_cachable fo then
        bad "write-shared-no-cache" "f%d: WRITE_SHARED but a client may cache"
          file;
      (* only clients with the file open may be marked cachable *)
      List.iteri
        (fun c cc ->
          if cc && not (List.exists (fun (c', _, _) -> c' = c) fo.o_openers)
          then bad "cachable-implies-open" "f%d: c%d cachable but not open" file c)
        fo.o_can_cache;
      (* the derived state must agree with the open counts *)
      let expected_state =
        if not fo.o_present then St.Closed
        else
          match (fo.o_openers, writers fo) with
          | [], _ ->
              if fo.o_last_writer = None then St.Closed else St.Closed_dirty
          | [ (c, _, _) ], [] ->
              if fo.o_last_writer = Some c then St.One_rdr_dirty
              else St.One_reader
          | [ _ ], [ _ ] -> St.One_writer
          | _ :: _ :: _, [] -> St.Mult_readers
          | _, _ :: _ -> St.Write_shared
      in
      if fo.o_state <> expected_state then
        bad "state-derivation" "f%d: state %s, open counts imply %s" file
          (St.state_to_string fo.o_state)
          (St.state_to_string expected_state);
      if (not fo.o_present) && fo.o_openers <> [] then
        bad "entry-liveness" "f%d: openers recorded without a table entry" file)
    obs;
  List.rev !out

let check_transition ~pre ~op ~result ~post =
  let out = ref [] in
  let bad inv fmt = Printf.ksprintf (fun d -> out := (inv, d) :: !out) fmt in
  (* version numbers never go backwards (Section 4.3.3); an entry may be
     forgotten (version reads 0) but any re-created entry draws a fresh,
     larger number from the global counter *)
  List.iter
    (fun (file, fo_pre) ->
      match List.assoc_opt file post with
      | None -> ()
      | Some fo_post ->
          if
            fo_pre.o_version > 0 && fo_post.o_version > 0
            && fo_post.o_version < fo_pre.o_version
          then
            bad "version-monotonic" "f%d: version %d -> %d" file
              fo_pre.o_version fo_post.o_version)
    pre;
  (match (op, result) with
  | Open (client, file, _), Some r ->
      (* callbacks performed before the reply never target the opener *)
      List.iter
        (fun cb ->
          if cb.St.target = client then
            bad "callback-not-opener" "f%d: open by c%d prescribes a callback to itself"
              file client)
        r.St.callbacks;
      if r.St.version < r.St.prev_version then
        bad "version-monotonic" "f%d: open reply has version %d < prev %d" file
          r.St.version r.St.prev_version
  | Open (_, _, _), None ->
      bad "open-result" "open transition recorded no open_result"
  | _, Some _ -> bad "open-result" "non-open transition carries an open_result"
  | _, None -> ());
  (* cachability is only ever granted by that client's own open *)
  List.iter
    (fun (file, fo_post) ->
      List.iteri
        (fun c cc_post ->
          let cc_pre =
            match List.assoc_opt file pre with
            | None -> false
            | Some fo -> (
                match List.nth_opt fo.o_can_cache c with
                | Some b -> b
                | None -> false)
          in
          if cc_post && not cc_pre then
            match op with
            | Open (c', f', _) when c' = c && f' = file -> ()
            | _ ->
                bad "cache-grant-at-open-only"
                  "f%d: c%d became cachable under %s" file c (op_to_string op))
        fo_post.o_can_cache)
    post;
  List.rev !out

let string_of_file_obs fo =
  Printf.sprintf "{present=%b state=%s v=%d openers=[%s] cc=[%s] lw=%s inc=%b}"
    fo.o_present
    (St.state_to_string fo.o_state)
    fo.o_version
    (String.concat ","
       (List.map (fun (c, r, w) -> Printf.sprintf "c%d:%d/%d" c r w) fo.o_openers))
    (String.concat "," (List.map string_of_bool fo.o_can_cache))
    (match fo.o_last_writer with None -> "-" | Some c -> "c" ^ string_of_int c)
    fo.o_inconsistent

let diff_obs ~expected ~got =
  let out = ref [] in
  List.iter
    (fun (file, fo_exp) ->
      match List.assoc_opt file got with
      | None -> out := ("model-agreement", Printf.sprintf "f%d: missing" file) :: !out
      | Some fo_got ->
          if fo_exp <> fo_got then
            out :=
              ( "model-agreement",
                Printf.sprintf "f%d: model %s, table %s" file
                  (string_of_file_obs fo_exp) (string_of_file_obs fo_got) )
              :: !out)
    expected;
  List.rev !out
