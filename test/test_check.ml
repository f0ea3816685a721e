(* The protocol model checker (lib/check).

   Positive: bounded-exhaustive BFS over the Table 4-1 state machine
   finds tens of thousands of distinct states and no invariant
   violation, with the real State_table in exact observable agreement
   with the independent reference model (versions, callbacks, derived
   states, recovery round-trips).

   Negative: deliberately-buggy wrappers around the real table are
   each caught by a named invariant — the checker can actually fail.

   Plus qcheck properties replaying random op sequences through the
   same machine (shrinking on failure), and unit coverage for Table_full / reclamation /
   least_recently_active_open. *)

module St = Spritely.State_table
module E = Check.Explore
module TC = Check.Table_machine.Make (St)

let violation_to_string v =
  Printf.sprintf "[%s] %s (after: %s)" v.E.v_inv v.E.v_detail
    (Check.Invariant.ops_to_string v.E.v_path)

let fail_on v = Alcotest.fail (violation_to_string v)

(* ---- exhaustive exploration ---- *)

let test_exhaustive () =
  let r = E.run (TC.machine ()) in
  (match r.E.violations with v :: _ -> fail_on v | [] -> ());
  Alcotest.(check bool)
    (Printf.sprintf "explored %d distinct states (>= 10_000)"
       r.E.stats.E.distinct_states)
    true
    (r.E.stats.E.distinct_states >= 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "checked %d transitions (>= 50_000)"
       r.E.stats.E.transitions)
    true
    (r.E.stats.E.transitions >= 50_000)

(* a smaller universe explored to the full depth bound *)
let test_exhaustive_deep () =
  let r = E.run ~max_states:100_000 (TC.machine ~clients:2 ~files:1 ()) in
  (match r.E.violations with v :: _ -> fail_on v | [] -> ());
  Alcotest.(check int) "ran to the depth bound" 8 r.E.stats.E.deepest

(* ---- negative tests: seeded bugs must be caught ---- *)

(* the first 3,000 states, to depth 4 *)
let small machine = E.run ~depth:4 ~max_states:3_000 (machine ())

let catches name checker_result expected_inv =
  match checker_result.E.violations with
  | [] -> Alcotest.fail (name ^ ": checker caught nothing")
  | vs ->
      Alcotest.(check bool)
        (name ^ ": caught by invariant " ^ expected_inv)
        true
        (List.exists (fun v -> v.E.v_inv = expected_inv) vs)

(* claims client 0 may always cache *)
module Buggy_grant = struct
  include Spritely.State_table

  let can_cache t ~file ~client = client = 0 || can_cache t ~file ~client
end

(* sends a callback to the very client whose open triggered it *)
module Buggy_callback = struct
  include Spritely.State_table

  let open_file t ~file ~client ~mode =
    let r = open_file t ~file ~client ~mode in
    {
      r with
      callbacks =
        { target = client; writeback = false; invalidate = true } :: r.callbacks;
    }
end

(* forgets the dirty last writer as soon as it closes *)
module Buggy_dirty = struct
  include Spritely.State_table

  let close_file t ~file ~client ~mode =
    close_file t ~file ~client ~mode;
    if mode = Write then note_clean t ~file ~client
end

module BG = Check.Table_machine.Make (Buggy_grant)
module BC = Check.Table_machine.Make (Buggy_callback)
module BD = Check.Table_machine.Make (Buggy_dirty)

let test_catches_bad_grant () =
  catches "always-cachable client" (small BG.machine)
    "cachable-implies-open"

let test_catches_bad_callback () =
  catches "callback to opener" (small BC.machine)
    "callback-not-opener"

let test_catches_lost_dirty () =
  catches "lost CLOSED_DIRTY" (small BD.machine) "model-agreement"

(* ---- qcheck: random sequences against the reference model ---- *)

let op_gen =
  QCheck.Gen.(
    let client = int_bound 2 in
    let file = int_bound 1 in
    let mode = map (fun b -> if b then St.Write else St.Read) bool in
    frequency
      [
        (6, map3 (fun c f m -> Check.Invariant.Open (c, f, m)) client file mode);
        (6, map3 (fun c f m -> Check.Invariant.Close (c, f, m)) client file mode);
        (2, map2 (fun c f -> Check.Invariant.Note_clean (c, f)) client file);
        (1, map (fun c -> Check.Invariant.Forget c) client);
        (1, map (fun f -> Check.Invariant.Remove f) file);
      ])

let ops_arbitrary =
  QCheck.make
    ~print:Check.Invariant.ops_to_string
    ~shrink:QCheck.Shrink.(list ?shrink:None)
    QCheck.Gen.(list_size (int_range 1 40) op_gen)

let prop_replay_clean =
  QCheck.Test.make
    ~name:"random op sequences: table matches reference model" ~count:300
    ops_arbitrary (fun ops ->
      match Script.replay (TC.machine ()) ops with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_report (violation_to_string v))

let prop_roundtrip =
  (* the literal ISSUE invariant, whenever the state is fully
     reconstructible (no inconsistent-flag-only entries) *)
  QCheck.Test.make ~name:"recovery round-trip: of_reports (to_reports t) = t"
    ~count:300 ops_arbitrary (fun ops ->
      let t = St.create () in
      let model = ref Check.Model.empty in
      List.iter
        (fun op ->
          if Check.Model.legal !model op then begin
            (match op with
            | Check.Invariant.Open (c, f, m) ->
                ignore (St.open_file t ~file:f ~client:c ~mode:m)
            | Check.Invariant.Close (c, f, m) ->
                St.close_file t ~file:f ~client:c ~mode:m
            | Check.Invariant.Note_clean (c, f) ->
                St.note_clean t ~file:f ~client:c
            | Check.Invariant.Forget c -> St.forget_client t c
            | Check.Invariant.Remove f -> St.remove_file t ~file:f);
            model := fst (Check.Model.apply !model op)
          end)
        ops;
      let reconstructible file =
        St.openers t ~file <> [] || St.last_writer t ~file <> None
      in
      if List.for_all reconstructible (St.files t) then
        St.equal (St.of_reports (St.to_reports t)) t
      else QCheck.assume_fail ())

(* ---- Table_full and reclamation (Section 4.3.1 / 6.2) ---- *)

(* [n] files from [first] opened for writing by clients 0 and 1 in turn
   and kept open: entries nothing can reclaim *)
let hold_open t ~first n =
  for file = first to first + n - 1 do
    ignore (St.open_file t ~file ~client:(file land 1) ~mode:St.Write)
  done

let test_table_full () =
  let t = St.create () in
  hold_open t ~first:1 St.max_entries;
  Alcotest.check_raises "table full of active opens" St.Table_full (fun () ->
      ignore (St.open_file t ~file:0 ~client:2 ~mode:St.Read))

let test_reclaim_closed_dirty () =
  let t = St.create () in
  (* f10 becomes CLOSED_DIRTY: reclaimable, but needs a write-back *)
  ignore (St.open_file t ~file:10 ~client:0 ~mode:St.Write);
  St.close_file t ~file:10 ~client:0 ~mode:St.Write;
  Alcotest.(check bool) "f10 is CLOSED_DIRTY" true
    (St.state t ~file:10 = St.Closed_dirty);
  (* every other entry stays actively open *)
  hold_open t ~first:20 (St.max_entries - 1);
  (* opening one file more must reclaim f10, prepending its write-back *)
  let r = St.open_file t ~file:0 ~client:2 ~mode:St.Read in
  (match r.St.callbacks with
  | { St.target = 0; writeback = true; invalidate = true } :: _ -> ()
  | cbs ->
      Alcotest.fail
        (Printf.sprintf "expected prepended reclaim write-back to c0, got %d \
                         callbacks"
           (List.length cbs)));
  Alcotest.(check bool) "f10 reclaimed" false (List.mem 10 (St.files t));
  Alcotest.(check bool) "f0 opened" true (List.mem 0 (St.files t));
  Alcotest.(check int) "still within bounds" St.max_entries (St.entry_count t)

let test_reclaim_clean_is_silent () =
  let t = St.create () in
  (* one entry short of full, with opens nothing can reclaim *)
  hold_open t ~first:10 (St.max_entries - 1);
  (* a clean closed entry: open read leaves no residue on close, so
     force an entry that is idle but present via a dirty writer that
     then reports clean *)
  ignore (St.open_file t ~file:1 ~client:0 ~mode:St.Write);
  St.close_file t ~file:1 ~client:0 ~mode:St.Write;
  St.note_clean t ~file:1 ~client:0;
  (* note_clean dropped the idle entry entirely: a slot is free *)
  Alcotest.(check int) "clean idle entry vanished" (St.max_entries - 1)
    (St.entry_count t);
  let r = St.open_file t ~file:2 ~client:1 ~mode:St.Read in
  Alcotest.(check int) "no reclamation callbacks" 0 (List.length r.St.callbacks)

let test_least_recently_active () =
  let t = St.create () in
  ignore (St.open_file t ~file:1 ~client:0 ~mode:St.Read);
  ignore (St.open_file t ~file:2 ~client:1 ~mode:St.Read);
  ignore (St.open_file t ~file:3 ~client:2 ~mode:St.Write);
  (* a CLOSED_DIRTY entry is not an open candidate *)
  ignore (St.open_file t ~file:0 ~client:2 ~mode:St.Write);
  St.close_file t ~file:0 ~client:2 ~mode:St.Write;
  (* touch f1: it becomes the most recently active *)
  ignore (St.open_file t ~file:1 ~client:0 ~mode:St.Read);
  St.close_file t ~file:1 ~client:0 ~mode:St.Read;
  (match St.least_recently_active_open t with
  | Some (2, [ 1 ]) -> ()
  | Some (f, cs) ->
      Alcotest.fail
        (Printf.sprintf "expected (f2, [c1]), got (f%d, [%s])" f
           (String.concat ";" (List.map string_of_int cs)))
  | None -> Alcotest.fail "expected a relinquish candidate");
  (* touch f2 as well: now f3 is stalest *)
  ignore (St.open_file t ~file:2 ~client:1 ~mode:St.Read);
  St.close_file t ~file:2 ~client:1 ~mode:St.Read;
  (match St.least_recently_active_open t with
  | Some (3, [ 2 ]) -> ()
  | _ -> Alcotest.fail "expected f3 after touching f2")

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "check"
    [
      ( "model checker",
        [
          Alcotest.test_case "exhaustive: >= 10k states, all invariants" `Quick
            test_exhaustive;
          Alcotest.test_case "exhaustive: full depth on small universe" `Quick
            test_exhaustive_deep;
        ] );
      ( "seeded bugs are caught",
        [
          Alcotest.test_case "always-cachable client" `Quick
            test_catches_bad_grant;
          Alcotest.test_case "callback to opener" `Quick
            test_catches_bad_callback;
          Alcotest.test_case "lost CLOSED_DIRTY state" `Quick
            test_catches_lost_dirty;
        ] );
      ("properties", qc [ prop_replay_clean; prop_roundtrip ]);
      ( "table pressure",
        [
          Alcotest.test_case "Table_full when nothing reclaimable" `Quick
            test_table_full;
          Alcotest.test_case "CLOSED_DIRTY reclaim prepends write-back" `Quick
            test_reclaim_closed_dirty;
          Alcotest.test_case "clean entries vanish silently" `Quick
            test_reclaim_clean_is_silent;
          Alcotest.test_case "least_recently_active_open candidate" `Quick
            test_least_recently_active;
        ] );
    ]
