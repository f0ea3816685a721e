(* Exhaustive walk of the paper's Table 4-1.

   For every named state we have a canonical construction sequence;
   for every applicable event (open read / open write, by the same or
   another client; close read / close write) we assert the resulting
   state and the prescribed callbacks. This is the full transition
   matrix of Section 4.3.4, including the rows the OCR of the paper
   mangled, reconstructed from the protocol description in Sections
   2.2 and 3. *)

open Spritely

let st =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (State_table.state_to_string s))
    ( = )

let file = 7

(* canonical clients *)
let c1 = 1

and c2 = 2

and c3 = 3

let open_ t client mode = State_table.open_file t ~file ~client ~mode

let close_ t client mode = State_table.close_file t ~file ~client ~mode

(* construction sequences for each named state; returns the table *)
let build = function
  | State_table.Closed ->
      (* an entry exists but nothing is open: create then fully retire.
         note_clean turns CLOSED_DIRTY into CLOSED (entry dropped) *)
      let t = State_table.create () in
      ignore (open_ t c1 State_table.Read);
      close_ t c1 State_table.Read;
      t
  | State_table.Closed_dirty ->
      let t = State_table.create () in
      ignore (open_ t c1 State_table.Write);
      close_ t c1 State_table.Write;
      t
  | State_table.One_reader ->
      let t = State_table.create () in
      ignore (open_ t c1 State_table.Read);
      t
  | State_table.One_rdr_dirty ->
      let t = State_table.create () in
      ignore (open_ t c1 State_table.Write);
      close_ t c1 State_table.Write;
      ignore (open_ t c1 State_table.Read);
      t
  | State_table.Mult_readers ->
      let t = State_table.create () in
      ignore (open_ t c1 State_table.Read);
      ignore (open_ t c2 State_table.Read);
      t
  | State_table.One_writer ->
      let t = State_table.create () in
      ignore (open_ t c1 State_table.Write);
      t
  | State_table.Write_shared ->
      let t = State_table.create () in
      ignore (open_ t c1 State_table.Write);
      ignore (open_ t c2 State_table.Write);
      t

let check_build state () =
  let t = build state in
  Alcotest.check st "constructed state" state (State_table.state t ~file)

(* one matrix entry: from [start], apply [event], expect [final] and
   the given callback summary (target, writeback, invalidate) list *)
let transition ~start ~event ~final ~callbacks () =
  let t = build start in
  let result =
    match event with
    | `Open (client, mode) -> Some (open_ t client mode)
    | `Close (client, mode) ->
        close_ t client mode;
        None
  in
  Alcotest.check st
    (Printf.sprintf "%s -> %s" (State_table.state_to_string start)
       (State_table.state_to_string final))
    final
    (State_table.state t ~file);
  match result with
  | None -> Alcotest.(check (list (triple int bool bool))) "no callbacks" [] callbacks
  | Some r ->
      let got =
        List.map
          (fun cb ->
            ( cb.State_table.target,
              cb.State_table.writeback,
              cb.State_table.invalidate ))
          r.State_table.callbacks
        |> List.sort compare
      in
      Alcotest.(check (list (triple int bool bool)))
        "prescribed callbacks" (List.sort compare callbacks) got

let case name fn = Alcotest.test_case name `Quick fn

let open_rows =
  [
    (* ---- from CLOSED ---- *)
    case "CLOSED + open read -> ONE_READER"
      (transition ~start:State_table.Closed
         ~event:(`Open (c1, State_table.Read))
         ~final:State_table.One_reader ~callbacks:[]);
    case "CLOSED + open write -> ONE_WRITER"
      (transition ~start:State_table.Closed
         ~event:(`Open (c1, State_table.Write))
         ~final:State_table.One_writer ~callbacks:[]);
    (* ---- from CLOSED_DIRTY (last writer c1) ---- *)
    case "CLOSED_DIRTY + reopen read by last writer -> ONE_RDR_DIRTY"
      (transition ~start:State_table.Closed_dirty
         ~event:(`Open (c1, State_table.Read))
         ~final:State_table.One_rdr_dirty ~callbacks:[]);
    case "CLOSED_DIRTY + reopen write by last writer -> ONE_WRITER"
      (transition ~start:State_table.Closed_dirty
         ~event:(`Open (c1, State_table.Write))
         ~final:State_table.One_writer ~callbacks:[]);
    case "CLOSED_DIRTY + open read by other -> ONE_READER + writeback cb"
      (transition ~start:State_table.Closed_dirty
         ~event:(`Open (c2, State_table.Read))
         ~final:State_table.One_reader
         ~callbacks:[ (c1, true, false) ]);
    case "CLOSED_DIRTY + open write by other -> ONE_WRITER + wb+inv cb"
      (transition ~start:State_table.Closed_dirty
         ~event:(`Open (c2, State_table.Write))
         ~final:State_table.One_writer
         ~callbacks:[ (c1, true, true) ]);
    (* ---- from ONE_READER (reader c1) ---- *)
    case "ONE_READER + open read by same -> ONE_READER"
      (transition ~start:State_table.One_reader
         ~event:(`Open (c1, State_table.Read))
         ~final:State_table.One_reader ~callbacks:[]);
    case "ONE_READER + open read by other -> MULT_READERS"
      (transition ~start:State_table.One_reader
         ~event:(`Open (c2, State_table.Read))
         ~final:State_table.Mult_readers ~callbacks:[]);
    case "ONE_READER + open write by same -> ONE_WRITER"
      (transition ~start:State_table.One_reader
         ~event:(`Open (c1, State_table.Write))
         ~final:State_table.One_writer ~callbacks:[]);
    case "ONE_READER + open write by other -> WRITE_SHARED + inv cb"
      (transition ~start:State_table.One_reader
         ~event:(`Open (c2, State_table.Write))
         ~final:State_table.Write_shared
         ~callbacks:[ (c1, false, true) ]);
    (* ---- from ONE_RDR_DIRTY (reader c1 with dirty blocks) ---- *)
    case "ONE_RDR_DIRTY + open read by same -> ONE_RDR_DIRTY"
      (transition ~start:State_table.One_rdr_dirty
         ~event:(`Open (c1, State_table.Read))
         ~final:State_table.One_rdr_dirty ~callbacks:[]);
    case "ONE_RDR_DIRTY + open write by same -> ONE_WRITER"
      (transition ~start:State_table.One_rdr_dirty
         ~event:(`Open (c1, State_table.Write))
         ~final:State_table.One_writer ~callbacks:[]);
    case "ONE_RDR_DIRTY + open read by other -> MULT_READERS + wb cb"
      (transition ~start:State_table.One_rdr_dirty
         ~event:(`Open (c2, State_table.Read))
         ~final:State_table.Mult_readers
         ~callbacks:[ (c1, true, false) ]);
    case "ONE_RDR_DIRTY + open write by other -> WRITE_SHARED + wb+inv cb"
      (transition ~start:State_table.One_rdr_dirty
         ~event:(`Open (c2, State_table.Write))
         ~final:State_table.Write_shared
         ~callbacks:[ (c1, true, true) ]);
    (* ---- from MULT_READERS (readers c1, c2) ---- *)
    case "MULT_READERS + open read by third -> MULT_READERS"
      (transition ~start:State_table.Mult_readers
         ~event:(`Open (c3, State_table.Read))
         ~final:State_table.Mult_readers ~callbacks:[]);
    case "MULT_READERS + open write by reader -> WRITE_SHARED + inv cb to other"
      (transition ~start:State_table.Mult_readers
         ~event:(`Open (c1, State_table.Write))
         ~final:State_table.Write_shared
         ~callbacks:[ (c2, false, true) ]);
    case "MULT_READERS + open write by third -> WRITE_SHARED + inv cbs to both"
      (transition ~start:State_table.Mult_readers
         ~event:(`Open (c3, State_table.Write))
         ~final:State_table.Write_shared
         ~callbacks:[ (c1, false, true); (c2, false, true) ]);
    (* ---- from ONE_WRITER (writer c1) ---- *)
    case "ONE_WRITER + open read by same -> ONE_WRITER"
      (transition ~start:State_table.One_writer
         ~event:(`Open (c1, State_table.Read))
         ~final:State_table.One_writer ~callbacks:[]);
    case "ONE_WRITER + open write by same -> ONE_WRITER"
      (transition ~start:State_table.One_writer
         ~event:(`Open (c1, State_table.Write))
         ~final:State_table.One_writer ~callbacks:[]);
    case "ONE_WRITER + open read by other -> WRITE_SHARED + wb+inv cb"
      (transition ~start:State_table.One_writer
         ~event:(`Open (c2, State_table.Read))
         ~final:State_table.Write_shared
         ~callbacks:[ (c1, true, true) ]);
    case "ONE_WRITER + open write by other -> WRITE_SHARED + wb+inv cb"
      (transition ~start:State_table.One_writer
         ~event:(`Open (c2, State_table.Write))
         ~final:State_table.Write_shared
         ~callbacks:[ (c1, true, true) ]);
    (* ---- from WRITE_SHARED (writers c1, c2; nobody caches) ---- *)
    case "WRITE_SHARED + open read by third -> WRITE_SHARED"
      (transition ~start:State_table.Write_shared
         ~event:(`Open (c3, State_table.Read))
         ~final:State_table.Write_shared ~callbacks:[]);
    case "WRITE_SHARED + open write by third -> WRITE_SHARED"
      (transition ~start:State_table.Write_shared
         ~event:(`Open (c3, State_table.Write))
         ~final:State_table.Write_shared ~callbacks:[]);
  ]

let close_rows =
  [
    case "ONE_READER + final close -> CLOSED"
      (transition ~start:State_table.One_reader
         ~event:(`Close (c1, State_table.Read))
         ~final:State_table.Closed ~callbacks:[]);
    case "ONE_RDR_DIRTY + final close -> CLOSED_DIRTY (writer remembered)"
      (transition ~start:State_table.One_rdr_dirty
         ~event:(`Close (c1, State_table.Read))
         ~final:State_table.Closed_dirty ~callbacks:[]);
    case "MULT_READERS + one closes -> ONE_READER"
      (transition ~start:State_table.Mult_readers
         ~event:(`Close (c2, State_table.Read))
         ~final:State_table.One_reader ~callbacks:[]);
    case "ONE_WRITER + final close -> CLOSED_DIRTY"
      (transition ~start:State_table.One_writer
         ~event:(`Close (c1, State_table.Write))
         ~final:State_table.Closed_dirty ~callbacks:[]);
    case "WRITE_SHARED + writer closes -> ONE_WRITER (no caching resumed)"
      (transition ~start:State_table.Write_shared
         ~event:(`Close (c2, State_table.Write))
         ~final:State_table.One_writer ~callbacks:[]);
  ]

(* the "close write while still reading" row needs a richer start *)
let test_close_write_still_reading () =
  let t = State_table.create () in
  ignore (open_ t c1 State_table.Read);
  ignore (open_ t c1 State_table.Write);
  close_ t c1 State_table.Write;
  Alcotest.check st "-> ONE_RDR_DIRTY" State_table.One_rdr_dirty
    (State_table.state t ~file);
  Alcotest.(check (option int)) "recorded as last writer" (Some c1)
    (State_table.last_writer t ~file)

(* WRITE_SHARED un-shares but caching stays off until reopen *)
let test_write_shared_never_reenables_caching_in_place () =
  let t = build State_table.Write_shared in
  close_ t c2 State_table.Write;
  Alcotest.check st "ONE_WRITER" State_table.One_writer
    (State_table.state t ~file);
  Alcotest.(check bool) "remaining writer still may not cache" false
    (State_table.can_cache t ~file ~client:c1);
  (* but closing and reopening regains cachability *)
  close_ t c1 State_table.Write;
  let r = open_ t c1 State_table.Write in
  Alcotest.(check bool) "fresh open may cache" true
    r.State_table.cache_enabled

(* version numbers along every write-open path *)
let test_versions_bump_exactly_on_write_opens () =
  let t = State_table.create () in
  let v0 = (open_ t c1 State_table.Read).State_table.version in
  let v1 = (open_ t c2 State_table.Read).State_table.version in
  Alcotest.(check int) "read opens don't bump" v0 v1;
  let v2 = (open_ t c3 State_table.Write).State_table.version in
  Alcotest.(check bool) "write open bumps" true (v2 > v1);
  let v3 = (open_ t c3 State_table.Write).State_table.version in
  Alcotest.(check bool) "even repeat write opens bump" true (v3 > v2)

let () =
  Alcotest.run "table_4_1"
    [
      ( "state constructions",
        List.map
          (fun s ->
            Alcotest.test_case (State_table.state_to_string s) `Quick
              (check_build s))
          [
            State_table.Closed;
            State_table.Closed_dirty;
            State_table.One_reader;
            State_table.One_rdr_dirty;
            State_table.Mult_readers;
            State_table.One_writer;
            State_table.Write_shared;
          ] );
      ("open transitions", open_rows);
      ("close transitions", close_rows);
      ( "special rows",
        [
          Alcotest.test_case "close write, still reading" `Quick
            test_close_write_still_reading;
          Alcotest.test_case "write-shared caching not re-enabled" `Quick
            test_write_shared_never_reenables_caching_in_place;
          Alcotest.test_case "version bump discipline" `Quick
            test_versions_bump_exactly_on_write_opens;
        ] );
    ]
