(* The client-lifecycle state machine: unit behavior, the lifecycle
   machine over the real module explored to its fixpoint, a qcheck
   random pass replayed through it, and the negative suite — six
   deliberately-buggy wrappers proving that each checked invariant
   actually bites. *)

module L = Spritely.Lifecycle
module E = Check.Explore
module LM = Check.Life_machine

let violation_to_string v =
  Printf.sprintf "%s after [%s]: %s" v.E.v_inv (LM.ops_to_string v.E.v_path)
    v.E.v_detail

let state = Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (L.state_to_string s))
    ( = )

(* ---- unit behavior ---- *)

let test_basic_transitions () =
  let t = L.create () in
  Alcotest.check state "fresh client is Active" L.Active (L.state t ~client:7);
  Alcotest.(check bool) "demote Active" true (L.demote t ~client:7 ~now:10.0);
  Alcotest.check state "now Courtesy" L.Courtesy (L.state t ~client:7);
  Alcotest.(check bool) "re-demote is a no-op" false
    (L.demote t ~client:7 ~now:20.0);
  Alcotest.(check int) "one suspect" 1 (L.nonactive t);
  Alcotest.(check bool) "conflict promotes" true (L.note_conflict t ~client:7);
  Alcotest.check state "now Expirable" L.Expirable (L.state t ~client:7);
  Alcotest.(check bool) "conflict is idempotent" false
    (L.note_conflict t ~client:7);
  Alcotest.(check bool) "too late to revive" false (L.revive t ~client:7);
  Alcotest.check state "still Expirable" L.Expirable (L.state t ~client:7);
  L.forget t ~client:7;
  Alcotest.check state "forgotten" L.Active (L.state t ~client:7);
  L.forget t ~client:7 (* double-forget is harmless *)

let test_revival () =
  let t = L.create () in
  Alcotest.(check bool) "revive of Active is a no-op" false
    (L.revive t ~client:3);
  ignore (L.demote t ~client:3 ~now:0.0);
  Alcotest.(check bool) "revive Courtesy" true (L.revive t ~client:3);
  Alcotest.check state "back to Active" L.Active (L.state t ~client:3);
  Alcotest.(check int) "no suspects" 0 (L.nonactive t)

let test_due_and_counts () =
  let t = L.create () in
  let due ~now = L.due t ~now ~courtesy_lifetime:50.0 in
  ignore (L.demote t ~client:1 ~now:0.0);
  ignore (L.demote t ~client:2 ~now:30.0);
  ignore (L.demote t ~client:3 ~now:30.0);
  ignore (L.note_conflict t ~client:3);
  Alcotest.(check (pair int int)) "counts" (2, 1) (L.counts t);
  (* at t=49: client1 not yet past its lifetime, client3 Expirable *)
  Alcotest.(check (list (pair int state))) "due at 49"
    [ (3, L.Expirable) ]
    (due ~now:49.0);
  (* at t=60: client1 aged out; client2 still inside its lifetime *)
  Alcotest.(check (list (pair int state))) "due at 60"
    [ (1, L.Courtesy); (3, L.Expirable) ]
    (due ~now:60.0);
  Alcotest.(check (list (pair int state))) "due is read-only"
    (due ~now:60.0) (due ~now:60.0);
  let copy = L.copy t in
  L.reset t;
  Alcotest.(check int) "reset drops everything" 0 (L.nonactive t);
  Alcotest.(check int) "copy is independent" 3 (L.nonactive copy)

let test_zero_lifetime_degenerates () =
  (* lifetime 0 is the legacy one-step reaper: demoted => due now *)
  let t = L.create () in
  ignore (L.demote t ~client:9 ~now:42.0);
  Alcotest.(check (list (pair int state))) "due immediately"
    [ (9, L.Courtesy) ]
    (L.due t ~now:42.0 ~courtesy_lifetime:0.0)

let test_negative_lifetime_rejected () =
  Alcotest.check_raises "negative lifetime"
    (Invalid_argument "Lifecycle.due: courtesy_lifetime must be >= 0")
    (fun () -> ignore (L.due (L.create ()) ~now:0.0 ~courtesy_lifetime:(-1.0)))

(* ---- the checker over the real module ---- *)

module Real = LM.Make (Spritely.Lifecycle)

(* three clients, each Active, Expirable or Courtesy aged 0, 1 or past
   the lifetime: every one of the 5^3 canonical states is reachable *)
let test_checker_clean () =
  let r = E.run Real.machine in
  (match r.E.violations with
  | [] -> ()
  | v :: _ -> Alcotest.fail (violation_to_string v));
  Alcotest.(check bool) "frontier exhausted" true r.E.stats.E.exhausted;
  Alcotest.(check int) "exhausted at 125 distinct states" 125
    r.E.stats.E.distinct_states

let qcheck_random_sequences =
  let open QCheck in
  let op_gen =
    Gen.frequency
      [
        (3, Gen.map (fun c -> LM.Demote c) (Gen.int_bound 2));
        (2, Gen.map (fun c -> LM.Conflict c) (Gen.int_bound 2));
        (2, Gen.map (fun c -> LM.Revive c) (Gen.int_bound 2));
        (2, Gen.return LM.Tick);
        (2, Gen.return LM.Scan);
      ]
  in
  let arb =
    make ~print:LM.ops_to_string (Gen.list_size (Gen.int_range 1 40) op_gen)
  in
  Test.make ~name:"random op sequences stay clean" ~count:300 arb (fun ops ->
      match Script.replay Real.machine ops with
      | [] -> true
      | v :: _ -> Test.fail_report (violation_to_string v))

(* ---- the negative suite: seeded bugs per invariant ---- *)

(* Each wrapper re-exports the real module with one operation broken
   through the public API; the checker must catch it and attribute the
   right invariant. *)

let expect_caught name expected (module M : LM.LIFE) =
  let module C = LM.Make (M) in
  match (E.run C.machine).E.violations with
  | [] -> Alcotest.failf "%s: checker missed the seeded bug" name
  | v :: _ ->
      Alcotest.(check string)
        (Printf.sprintf "%s attributed to %s" name expected)
        expected v.E.v_inv

(* linger bug 1: the reaper only ever reports Expirable clients, so a
   quiet Courtesy client is retained forever *)
module Linger_only_expirable = struct
  include Spritely.Lifecycle

  let due t ~now ~courtesy_lifetime =
    List.filter
      (fun (_, s) -> s = Spritely.Lifecycle.Expirable)
      (due t ~now ~courtesy_lifetime)
end

(* linger bug 2: due rebuilt over to_list with a 10x-too-generous
   lifetime threshold *)
module Linger_wrong_threshold = struct
  include Spritely.Lifecycle

  let due t ~now ~courtesy_lifetime =
    List.filter_map
      (fun (c, s, since) ->
        if s = Spritely.Lifecycle.Expirable then Some (c, s)
        else if now -. since >= 10.0 *. courtesy_lifetime then Some (c, s)
        else None)
      (to_list t)
end

(* conflict bug 1: demotion jumps straight to Expirable *)
module Conflict_on_demote = struct
  include Spritely.Lifecycle

  let demote t ~client ~now =
    let r = demote t ~client ~now in
    if r then ignore (note_conflict t ~client);
    r
end

(* conflict bug 2: a conflict against an Active client demotes it
   first, then promotes — Expirable without ever having been a quiet
   Courtesy client *)
module Conflict_promotes_active = struct
  include Spritely.Lifecycle

  let note_conflict t ~client =
    ignore (demote t ~client ~now:0.0);
    note_conflict t ~client
end

(* reclaim bug 1: forget does nothing, so reaped clients come back *)
module Reclaim_forget_noop = struct
  include Spritely.Lifecycle

  let forget _t ~client:_ = ()
end

(* reclaim bug 2: due is stateful, alternating between the truth and
   an empty answer *)
module Reclaim_flapping_due = struct
  include Spritely.Lifecycle

  let flip = ref false

  let due t ~now ~courtesy_lifetime =
    flip := not !flip;
    if !flip then due t ~now ~courtesy_lifetime else []
end

let test_seeded_bugs () =
  expect_caught "linger-only-expirable" "courtesy-cannot-linger-past-lifetime"
    (module Linger_only_expirable);
  expect_caught "linger-wrong-threshold" "courtesy-cannot-linger-past-lifetime"
    (module Linger_wrong_threshold);
  expect_caught "conflict-on-demote" "expirable-only-on-conflict"
    (module Conflict_on_demote);
  expect_caught "conflict-promotes-active" "expirable-only-on-conflict"
    (module Conflict_promotes_active);
  expect_caught "reclaim-forget-noop" "reclaim-idempotence"
    (module Reclaim_forget_noop);
  expect_caught "reclaim-flapping-due" "reclaim-idempotence"
    (module Reclaim_flapping_due)

let () =
  Alcotest.run "lifecycle"
    [
      ( "unit",
        [
          Alcotest.test_case "basic transitions" `Quick test_basic_transitions;
          Alcotest.test_case "revival" `Quick test_revival;
          Alcotest.test_case "due and counts" `Quick test_due_and_counts;
          Alcotest.test_case "zero lifetime degenerates" `Quick
            test_zero_lifetime_degenerates;
          Alcotest.test_case "negative lifetime rejected" `Quick
            test_negative_lifetime_rejected;
        ] );
      ( "checker",
        [
          Alcotest.test_case "real module is clean" `Quick test_checker_clean;
          QCheck_alcotest.to_alcotest qcheck_random_sequences;
        ] );
      ( "seeded bugs",
        [ Alcotest.test_case "all six caught" `Quick test_seeded_bugs ] );
    ]
