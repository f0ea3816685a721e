(* Tests for Domain-parallel campaign sweeps (Experiments.Sweep /
   Experiments.Campaign) and for the per-domain observability slots
   they rely on.

   The load-bearing property: a campaign fanned out over domains is
   byte-identical to the same campaign run sequentially — rendered
   reports, metrics CSV exports, and trace JSON included. That holds
   because every job builds its own engine and installs its own
   tracer/metrics registry in a Domain.DLS slot; the negative test at
   the bottom demonstrates that the pre-DLS design (one global slot
   shared by every domain) breaks exactly this property. *)

module Sweep = Experiments.Sweep
module Campaign = Experiments.Campaign

let test_map_is_list_map () =
  let items = List.init 20 (fun i -> i) in
  let f i = (i * i) + 1 in
  Alcotest.(check (list int))
    "jobs=1" (List.map f items)
    (Sweep.map ~jobs:1 ~f items);
  Alcotest.(check (list int))
    "jobs=2 preserves input order" (List.map f items)
    (Sweep.map ~jobs:2 ~f items);
  Alcotest.(check (list int))
    "more jobs than items" (List.map f items)
    (Sweep.map ~jobs:8 ~f items);
  Alcotest.(check (list int)) "empty" [] (Sweep.map ~jobs:2 ~f [])

exception Boom of int

let test_first_failure_in_input_order () =
  (* items 3 and 5 both fail; whichever domain hits its failure first,
     the reported failure must be item 3's *)
  let f i = if i = 3 || i = 5 then raise (Boom i) else i in
  match Sweep.map ~jobs:2 ~f (List.init 8 (fun i -> i)) with
  | _ -> Alcotest.fail "expected a failure"
  | exception Boom 3 -> ()
  | exception Boom n -> Alcotest.failf "failure for item %d, wanted 3" n

let campaign_subset () =
  List.filter
    (fun (c : Campaign.config) ->
      List.mem c.Campaign.name [ "nfs"; "snfs"; "snfs-tmp-local" ])
    (Campaign.default ())

let test_parallel_campaign_byte_identical () =
  let configs = campaign_subset () in
  let run_all ~jobs = Sweep.map ~jobs ~f:(Campaign.run_one ~observe:true) configs in
  let seq = run_all ~jobs:1 in
  let par = run_all ~jobs:2 in
  Alcotest.(check int) "same count" (List.length seq) (List.length par);
  List.iter2
    (fun (s : Campaign.run) (p : Campaign.run) ->
      Alcotest.(check string) (s.Campaign.name ^ " name") s.Campaign.name
        p.Campaign.name;
      Alcotest.(check int)
        (s.Campaign.name ^ " events")
        s.Campaign.events p.Campaign.events;
      Alcotest.(check string)
        (s.Campaign.name ^ " report")
        s.Campaign.report p.Campaign.report;
      Alcotest.(check string)
        (s.Campaign.name ^ " metrics csv")
        s.Campaign.metrics_csv p.Campaign.metrics_csv;
      Alcotest.(check string)
        (s.Campaign.name ^ " trace json")
        s.Campaign.trace_json p.Campaign.trace_json)
    seq par;
  (* the observability exports must actually contain something, or the
     byte-identity above proves nothing *)
  List.iter
    (fun (r : Campaign.run) ->
      Alcotest.(check bool)
        (r.Campaign.name ^ " has metrics")
        true
        (String.length r.Campaign.metrics_csv > 0);
      Alcotest.(check bool)
        (r.Campaign.name ^ " has trace")
        true
        (String.length r.Campaign.trace_json > 0))
    seq

let test_dls_slots_are_per_domain () =
  (* installing a registry here must be invisible inside another
     domain: both the fast-path [on ()] and the slot itself *)
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () ->
      Alcotest.(check bool) "installed here" true (Obs.Metrics.on ());
      let seen_inside =
        Domain.join
          (Domain.spawn (fun () ->
               (Obs.Metrics.on (), Obs.Metrics.installed () = None)))
      in
      Alcotest.(check (pair bool bool))
        "child domain sees no registry" (false, true) seen_inside);
  let t = Obs.Trace.create () in
  Obs.Trace.with_tracer t (fun () ->
      Alcotest.(check bool) "tracer installed here" true (Obs.Trace.on ());
      let child_on =
        Domain.join (Domain.spawn (fun () -> Obs.Trace.on ()))
      in
      Alcotest.(check bool) "child domain sees no tracer" false child_on)

(* Negative test: seed the bug the DLS slots exist to prevent. A
   single global slot — the pre-Sweep design — leaks the installing
   domain's registry into every other domain, so two concurrent jobs
   would interleave their metrics into whichever registry was
   installed last. This test pins the failure mode so the isolation
   property above is understood as load-bearing, not incidental. *)
let test_global_slot_would_leak () =
  let global_slot = ref None in
  let install v = global_slot := Some v in
  let on () = !global_slot <> None in
  install "job A's registry";
  let leaked = Domain.join (Domain.spawn (fun () -> on ())) in
  Alcotest.(check bool)
    "a global slot leaks across domains (the seeded bug)" true leaked;
  (* the same sequence through the real per-domain slot stays isolated *)
  let m = Obs.Metrics.create () in
  Obs.Metrics.with_metrics m (fun () ->
      let real = Domain.join (Domain.spawn (fun () -> Obs.Metrics.on ())) in
      Alcotest.(check bool) "the DLS slot does not" false real)

let () =
  Alcotest.run "sweep"
    [
      ( "sweep map",
        [
          Alcotest.test_case "map semantics" `Quick test_map_is_list_map;
          Alcotest.test_case "failure order" `Quick
            test_first_failure_in_input_order;
        ] );
      ( "parallel determinism",
        [
          Alcotest.test_case "2-domain campaign byte-identical" `Slow
            test_parallel_campaign_byte_identical;
        ] );
      ( "per-domain slots",
        [
          Alcotest.test_case "DLS isolation" `Quick
            test_dls_slots_are_per_domain;
          Alcotest.test_case "global slot would leak" `Quick
            test_global_slot_would_leak;
        ] );
    ]
