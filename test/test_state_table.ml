(* Tests for the SNFS server state table: every transition of the
   paper's Table 4-1, version-number rules, callback prescriptions,
   reclamation, client crashes, and recovery reconstruction. *)

open Spritely

let st =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (State_table.state_to_string s))
    ( = )

let check_state t file expected =
  Alcotest.check st
    ("state is " ^ State_table.state_to_string expected)
    expected
    (State_table.state t ~file)

let no_callbacks r =
  Alcotest.(check int) "no callbacks" 0 (List.length r.State_table.callbacks)

let f1 = 101

(* ---- basic opens (Table 4-1, from CLOSED) ---- *)

let test_closed_open_read () =
  let t = State_table.create () in
  check_state t f1 State_table.Closed;
  let r = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read in
  Alcotest.(check bool) "cacheable" true r.State_table.cache_enabled;
  no_callbacks r;
  check_state t f1 State_table.One_reader

let test_closed_open_write () =
  let t = State_table.create () in
  let r = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write in
  Alcotest.(check bool) "cacheable" true r.State_table.cache_enabled;
  no_callbacks r;
  check_state t f1 State_table.One_writer

let test_two_readers () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  let r = State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Read in
  Alcotest.(check bool) "second reader caches" true r.State_table.cache_enabled;
  no_callbacks r;
  check_state t f1 State_table.Mult_readers

let test_same_client_multiple_reads_no_transition () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  let r = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read in
  no_callbacks r;
  check_state t f1 State_table.One_reader;
  Alcotest.(check (list (pair int (pair int int))))
    "read count 2"
    [ (1, (2, 0)) ]
    (List.map (fun (c, r, w) -> (c, (r, w))) (State_table.openers t ~file:f1))

(* ---- write sharing ---- *)

let test_reader_then_writer_other_client () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  let r = State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Write in
  Alcotest.(check bool) "writer cannot cache" false r.State_table.cache_enabled;
  (* the existing reader must be told to stop caching *)
  (match r.State_table.callbacks with
  | [ cb ] ->
      Alcotest.(check int) "target is reader" 1 cb.State_table.target;
      Alcotest.(check bool) "invalidate" true cb.State_table.invalidate;
      Alcotest.(check bool) "no writeback needed" false cb.State_table.writeback
  | cbs -> Alcotest.failf "expected 1 callback, got %d" (List.length cbs));
  check_state t f1 State_table.Write_shared;
  Alcotest.(check bool) "reader caching disabled" false
    (State_table.can_cache t ~file:f1 ~client:1)

let test_writer_then_reader_other_client () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  let r = State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Read in
  Alcotest.(check bool) "new reader cannot cache" false
    r.State_table.cache_enabled;
  (match r.State_table.callbacks with
  | [ cb ] ->
      Alcotest.(check int) "target is writer" 1 cb.State_table.target;
      Alcotest.(check bool) "writeback" true cb.State_table.writeback;
      Alcotest.(check bool) "invalidate" true cb.State_table.invalidate
  | cbs -> Alcotest.failf "expected 1 callback, got %d" (List.length cbs));
  check_state t f1 State_table.Write_shared

let test_mult_readers_then_writer () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Read);
  let r = State_table.open_file t ~file:f1 ~client:3 ~mode:State_table.Write in
  Alcotest.(check int) "both readers called back" 2
    (List.length r.State_table.callbacks);
  List.iter
    (fun cb ->
      Alcotest.(check bool) "invalidate only" true
        (cb.State_table.invalidate && not cb.State_table.writeback))
    r.State_table.callbacks;
  check_state t f1 State_table.Write_shared

let test_same_client_read_then_write () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  let r = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write in
  Alcotest.(check bool) "still caches" true r.State_table.cache_enabled;
  no_callbacks r;
  check_state t f1 State_table.One_writer

let test_write_shared_reader_joins () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  ignore (State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Write);
  let r = State_table.open_file t ~file:f1 ~client:3 ~mode:State_table.Read in
  Alcotest.(check bool) "joiner cannot cache" false r.State_table.cache_enabled;
  no_callbacks r;
  check_state t f1 State_table.Write_shared

(* ---- closes (Table 4-1, lower rows) ---- *)

let test_writer_close_goes_closed_dirty () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write;
  check_state t f1 State_table.Closed_dirty;
  Alcotest.(check (option int)) "last writer recorded" (Some 1)
    (State_table.last_writer t ~file:f1)

let test_reader_close_goes_closed () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Read;
  check_state t f1 State_table.Closed;
  Alcotest.(check int) "entry dropped" 0 (State_table.entry_count t)

let test_close_write_still_reading () =
  (* "Final close for write, client still reading -> ONE_RDR_DIRTY" *)
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write;
  check_state t f1 State_table.One_rdr_dirty;
  Alcotest.(check (option int)) "still last writer" (Some 1)
    (State_table.last_writer t ~file:f1)

let test_mult_readers_one_closes () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Read);
  State_table.close_file t ~file:f1 ~client:2 ~mode:State_table.Read;
  check_state t f1 State_table.One_reader

let test_non_caching_writer_close_not_dirty () =
  (* a WRITE_SHARED writer wrote through, so no dirty data on close *)
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Write);
  State_table.close_file t ~file:f1 ~client:2 ~mode:State_table.Write;
  Alcotest.(check (option int)) "no last writer" None
    (State_table.last_writer t ~file:f1);
  check_state t f1 State_table.One_reader

let test_close_mismatch_rejected () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  (match State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write with
  | () -> Alcotest.fail "close with wrong mode should be rejected"
  | exception Invalid_argument _ -> ());
  match State_table.close_file t ~file:f1 ~client:2 ~mode:State_table.Read with
  | () -> Alcotest.fail "close by stranger should be rejected"
  | exception Invalid_argument _ -> ()

(* ---- CLOSED_DIRTY reopens ---- *)

let test_closed_dirty_reopen_by_writer_read () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write;
  let r = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read in
  no_callbacks r;
  Alcotest.(check bool) "caches" true r.State_table.cache_enabled;
  check_state t f1 State_table.One_rdr_dirty

let test_closed_dirty_reopen_by_other_read () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write;
  let r = State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Read in
  (match r.State_table.callbacks with
  | [ cb ] ->
      Alcotest.(check int) "writeback to last writer" 1 cb.State_table.target;
      Alcotest.(check bool) "writeback" true cb.State_table.writeback;
      (* reading doesn't require invalidating the old writer's copy *)
      Alcotest.(check bool) "no invalidate" false cb.State_table.invalidate
  | cbs -> Alcotest.failf "expected 1 callback, got %d" (List.length cbs));
  Alcotest.(check bool) "reader caches" true r.State_table.cache_enabled;
  check_state t f1 State_table.One_reader

let test_closed_dirty_reopen_by_other_write () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write;
  let r = State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Write in
  (match r.State_table.callbacks with
  | [ cb ] ->
      Alcotest.(check int) "callback to last writer" 1 cb.State_table.target;
      Alcotest.(check bool) "writeback" true cb.State_table.writeback;
      Alcotest.(check bool) "invalidate too" true cb.State_table.invalidate
  | cbs -> Alcotest.failf "expected 1 callback, got %d" (List.length cbs));
  check_state t f1 State_table.One_writer

let test_one_rdr_dirty_other_reader_joins () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write;
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read);
  check_state t f1 State_table.One_rdr_dirty;
  let r = State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Read in
  (match r.State_table.callbacks with
  | [ cb ] ->
      Alcotest.(check int) "writeback to dirty reader" 1 cb.State_table.target;
      Alcotest.(check bool) "writeback" true cb.State_table.writeback
  | cbs -> Alcotest.failf "expected 1 callback, got %d" (List.length cbs));
  check_state t f1 State_table.Mult_readers

(* ---- version numbers ---- *)

let test_version_bumps_on_write_open () =
  let t = State_table.create () in
  let r1 = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read in
  let v1 = r1.State_table.version in
  let r2 = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write in
  Alcotest.(check bool) "bumped" true (r2.State_table.version > v1);
  Alcotest.(check int) "previous returned" v1 r2.State_table.prev_version

let test_version_stable_on_read_open () =
  let t = State_table.create () in
  let r1 = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Read in
  let r2 = State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Read in
  Alcotest.(check int) "same version" r1.State_table.version
    r2.State_table.version

let test_version_validity_rule () =
  let t = State_table.create () in
  (* client 1 writes the file (cached at version v) *)
  let r1 = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write in
  let v = r1.State_table.version in
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write;
  (* reopening for write: version bumps, but prev matches the cache *)
  let r2 = State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write in
  Alcotest.(check bool) "cache valid via prev rule" true
    (Version.valid_for_open ~cached:(Some v) ~latest:r2.State_table.version
       ~previous:r2.State_table.prev_version ~write:true);
  Alcotest.(check bool) "but not for a read open" false
    (Version.valid_for_open ~cached:(Some v) ~latest:r2.State_table.version
       ~previous:r2.State_table.prev_version ~write:false);
  Alcotest.(check bool) "nothing cached is invalid" false
    (Version.valid_for_open ~cached:None ~latest:r2.State_table.version
       ~previous:r2.State_table.prev_version ~write:true)

(* ---- reclamation ---- *)

let test_reclaim_closed_entries () =
  let t = State_table.create () in
  let full = State_table.max_entries in
  (* fill the table with closed-dirty files *)
  for file = 1 to full do
    ignore (State_table.open_file t ~file ~client:1 ~mode:State_table.Write);
    State_table.close_file t ~file ~client:1 ~mode:State_table.Write
  done;
  Alcotest.(check int) "full" full (State_table.entry_count t);
  (* one file more forces reclamation of a closed entry via callback *)
  let r =
    State_table.open_file t ~file:(full + 1) ~client:2 ~mode:State_table.Read
  in
  Alcotest.(check int) "reclamation callback" 1
    (List.length r.State_table.callbacks);
  Alcotest.(check bool) "writeback requested" true
    (List.for_all (fun cb -> cb.State_table.writeback) r.State_table.callbacks);
  Alcotest.(check int) "bounded" full (State_table.entry_count t)

let test_least_recently_active_open () =
  let t = State_table.create () in
  Alcotest.(check bool) "empty table" true
    (State_table.least_recently_active_open t = None);
  ignore (State_table.open_file t ~file:1 ~client:1 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:2 ~client:2 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:3 ~client:3 ~mode:State_table.Read);
  (* touch file 1 again: file 2 becomes the stalest open entry *)
  ignore (State_table.open_file t ~file:1 ~client:1 ~mode:State_table.Read);
  (match State_table.least_recently_active_open t with
  | Some (file, clients) ->
      Alcotest.(check int) "stalest entry" 2 file;
      Alcotest.(check (list int)) "its clients" [ 2 ] clients
  | None -> Alcotest.fail "expected an open entry");
  (* closed entries are not candidates *)
  State_table.close_file t ~file:2 ~client:2 ~mode:State_table.Read;
  match State_table.least_recently_active_open t with
  | Some (file, _) -> Alcotest.(check int) "next stalest" 3 file
  | None -> Alcotest.fail "expected an open entry"

let test_approx_bytes () =
  let t = State_table.create () in
  Alcotest.(check int) "empty" 0 (State_table.approx_bytes t);
  for file = 1 to 1000 do
    ignore (State_table.open_file t ~file ~client:1 ~mode:State_table.Read)
  done;
  (* the paper: 1000 open files in about 70 kbytes *)
  let bytes = State_table.approx_bytes t in
  Alcotest.(check bool)
    (Printf.sprintf "1000 files ~ 68 kB (%d)" bytes)
    true
    (bytes = 68_000)

let test_table_full_when_all_open () =
  let t = State_table.create () in
  let full = State_table.max_entries in
  for file = 1 to full do
    ignore (State_table.open_file t ~file ~client:1 ~mode:State_table.Read)
  done;
  match
    State_table.open_file t ~file:(full + 1) ~client:1 ~mode:State_table.Read
  with
  | _ -> Alcotest.fail "expected Table_full"
  | exception State_table.Table_full -> ()

(* ---- client crash ---- *)

let test_forget_client () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  ignore (State_table.open_file t ~file:202 ~client:1 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:202 ~client:2 ~mode:State_table.Read);
  State_table.forget_client t 1;
  check_state t f1 State_table.Closed;
  (* losing an active writer may have lost data *)
  Alcotest.(check bool) "marked inconsistent" true
    (State_table.was_inconsistent t ~file:f1);
  check_state t 202 State_table.One_reader

let test_inconsistent_cleared_by_write () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  State_table.forget_client t 1;
  Alcotest.(check bool) "inconsistent" true (State_table.was_inconsistent t ~file:f1);
  ignore (State_table.open_file t ~file:f1 ~client:2 ~mode:State_table.Write);
  Alcotest.(check bool) "new version supersedes" false
    (State_table.was_inconsistent t ~file:f1)

(* ---- remove ---- *)

let test_remove_file () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:f1 ~client:1 ~mode:State_table.Write);
  State_table.close_file t ~file:f1 ~client:1 ~mode:State_table.Write;
  State_table.remove_file t ~file:f1;
  check_state t f1 State_table.Closed;
  Alcotest.(check int) "entry gone" 0 (State_table.entry_count t)

(* ---- recovery ---- *)

let test_recovery_roundtrip_simple () =
  let t = State_table.create () in
  ignore (State_table.open_file t ~file:1 ~client:1 ~mode:State_table.Write);
  ignore (State_table.open_file t ~file:2 ~client:1 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:2 ~client:2 ~mode:State_table.Read);
  ignore (State_table.open_file t ~file:3 ~client:3 ~mode:State_table.Write);
  State_table.close_file t ~file:3 ~client:3 ~mode:State_table.Write;
  let rebuilt = State_table.of_reports (State_table.to_reports t) in
  Alcotest.(check bool) "tables equal" true (State_table.equal t rebuilt);
  check_state rebuilt 1 State_table.One_writer;
  check_state rebuilt 2 State_table.Mult_readers;
  check_state rebuilt 3 State_table.Closed_dirty

let test_recovery_preserves_versions () =
  let t = State_table.create () in
  for _ = 1 to 5 do
    ignore (State_table.open_file t ~file:1 ~client:1 ~mode:State_table.Write);
    State_table.close_file t ~file:1 ~client:1 ~mode:State_table.Write
  done;
  let v = State_table.version_of t ~file:1 in
  let rebuilt = State_table.of_reports (State_table.to_reports t) in
  Alcotest.(check int) "version preserved" v
    (State_table.version_of rebuilt ~file:1);
  (* new versions after recovery are higher than any pre-crash one *)
  let r = State_table.open_file t ~file:9 ~client:2 ~mode:State_table.Write in
  Alcotest.(check bool) "fresh version above" true (r.State_table.version > 0)

(* ---- properties ---- *)

(* random op sequences maintain the central SNFS safety invariants *)
type op = Open of int * int * State_table.mode | Close_random of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun file client write ->
              Open
                ( file,
                  client,
                  if write then State_table.Write else State_table.Read ))
            (int_range 1 4) (int_range 1 4) bool );
        (2, map (fun i -> Close_random i) (int_range 0 1000));
      ])

let arbitrary_ops = QCheck.make ~print:(fun _ -> "<ops>") QCheck.Gen.(list_size (int_bound 60) op_gen)

(* executes ops, keeping a mirror of outstanding opens so closes are
   well-formed; checks invariants after every step *)
let run_ops ops =
  let t = State_table.create () in
  let outstanding = ref [] in
  let ok = ref true in
  let check_invariants () =
    List.iter
      (fun file ->
        let openers = State_table.openers t ~file in
        let writers =
          List.filter (fun (_, _, w) -> w > 0) openers |> List.map (fun (c, _, _) -> c)
        in
        let cachers =
          List.filter (fun (c, _, _) -> State_table.can_cache t ~file ~client:c) openers
        in
        (* INVARIANT: if any client writes and another is open, nobody
           may cache *)
        if writers <> [] && List.length openers > 1 && cachers <> [] then
          ok := false;
        (* INVARIANT: version never decreases (checked via monotone
           recording below) *)
        ())
      (State_table.files t)
  in
  let last_version = Hashtbl.create 8 in
  List.iter
    (fun op ->
      (match op with
      | Open (file, client, mode) -> (
          match State_table.open_file t ~file ~client ~mode with
          | r ->
              outstanding := (file, client, mode) :: !outstanding;
              let prev =
                Option.value ~default:0 (Hashtbl.find_opt last_version file)
              in
              if r.State_table.version < prev then ok := false;
              Hashtbl.replace last_version file r.State_table.version;
              (* callbacks never target the opening client *)
              List.iter
                (fun cb ->
                  if cb.State_table.target = client then ok := false)
                r.State_table.callbacks
          | exception State_table.Table_full -> ())
      | Close_random i -> (
          match !outstanding with
          | [] -> ()
          | l ->
              let n = List.length l in
              let file, client, mode = List.nth l (i mod n) in
              State_table.close_file t ~file ~client ~mode;
              let rec remove_first = function
                | [] -> []
                | x :: rest ->
                    if x = (file, client, mode) then rest
                    else x :: remove_first rest
              in
              outstanding := remove_first l));
      check_invariants ())
    ops;
  !ok

let prop_invariants =
  QCheck.Test.make ~name:"no write-sharing with caching; versions monotone"
    ~count:300 arbitrary_ops run_ops

let prop_recovery_roundtrip =
  QCheck.Test.make ~name:"recovery reconstructs the table" ~count:200
    arbitrary_ops (fun ops ->
      let t = State_table.create () in
      let outstanding = ref [] in
      List.iter
        (fun op ->
          match op with
          | Open (file, client, mode) -> (
              match State_table.open_file t ~file ~client ~mode with
              | _ -> outstanding := (file, client, mode) :: !outstanding
              | exception State_table.Table_full -> ())
          | Close_random i -> (
              match !outstanding with
              | [] -> ()
              | l ->
                  let n = List.length l in
                  let file, client, mode = List.nth l (i mod n) in
                  State_table.close_file t ~file ~client ~mode;
                  let rec remove_first = function
                    | [] -> []
                    | x :: rest ->
                        if x = (file, client, mode) then rest
                        else x :: remove_first rest
                  in
                  outstanding := remove_first l))
        ops;
      State_table.equal t (State_table.of_reports (State_table.to_reports t)))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "state_table"
    [
      ( "opens",
        [
          Alcotest.test_case "closed -> one reader" `Quick test_closed_open_read;
          Alcotest.test_case "closed -> one writer" `Quick test_closed_open_write;
          Alcotest.test_case "two readers" `Quick test_two_readers;
          Alcotest.test_case "repeat read no transition" `Quick
            test_same_client_multiple_reads_no_transition;
          Alcotest.test_case "read then write same client" `Quick
            test_same_client_read_then_write;
        ] );
      ( "write sharing",
        [
          Alcotest.test_case "reader then other writer" `Quick
            test_reader_then_writer_other_client;
          Alcotest.test_case "writer then other reader" `Quick
            test_writer_then_reader_other_client;
          Alcotest.test_case "readers then writer" `Quick
            test_mult_readers_then_writer;
          Alcotest.test_case "join write-shared" `Quick
            test_write_shared_reader_joins;
        ] );
      ( "closes",
        [
          Alcotest.test_case "writer close -> closed dirty" `Quick
            test_writer_close_goes_closed_dirty;
          Alcotest.test_case "reader close -> closed" `Quick
            test_reader_close_goes_closed;
          Alcotest.test_case "close write still reading" `Quick
            test_close_write_still_reading;
          Alcotest.test_case "one of many readers closes" `Quick
            test_mult_readers_one_closes;
          Alcotest.test_case "non-caching writer close" `Quick
            test_non_caching_writer_close_not_dirty;
          Alcotest.test_case "bad closes rejected" `Quick
            test_close_mismatch_rejected;
        ] );
      ( "closed dirty",
        [
          Alcotest.test_case "reopen by writer (read)" `Quick
            test_closed_dirty_reopen_by_writer_read;
          Alcotest.test_case "reopen by other (read)" `Quick
            test_closed_dirty_reopen_by_other_read;
          Alcotest.test_case "reopen by other (write)" `Quick
            test_closed_dirty_reopen_by_other_write;
          Alcotest.test_case "one rdr dirty + reader" `Quick
            test_one_rdr_dirty_other_reader_joins;
        ] );
      ( "versions",
        [
          Alcotest.test_case "bump on write open" `Quick
            test_version_bumps_on_write_open;
          Alcotest.test_case "stable on read open" `Quick
            test_version_stable_on_read_open;
          Alcotest.test_case "validity rule" `Quick test_version_validity_rule;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "reclaim closed" `Quick test_reclaim_closed_entries;
          Alcotest.test_case "LRU open entry" `Quick
            test_least_recently_active_open;
          Alcotest.test_case "memory accounting" `Quick test_approx_bytes;
          Alcotest.test_case "table full" `Quick test_table_full_when_all_open;
        ] );
      ( "failure",
        [
          Alcotest.test_case "forget client" `Quick test_forget_client;
          Alcotest.test_case "inconsistent cleared" `Quick
            test_inconsistent_cleared_by_write;
          Alcotest.test_case "remove file" `Quick test_remove_file;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "roundtrip" `Quick test_recovery_roundtrip_simple;
          Alcotest.test_case "versions preserved" `Quick
            test_recovery_preserves_versions;
        ] );
      ("properties", qc [ prop_invariants; prop_recovery_roundtrip ]);
    ]
