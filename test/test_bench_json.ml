(* Tests for the BENCH_<n>.json perf-trajectory schema
   (Experiments.Perf): fixed key order, exact round-trips, append-only
   writes, and the regression comparison CI's bench smoke job runs. *)

module Perf = Experiments.Perf

let sample_point =
  {
    Perf.schema_version = Perf.current_schema;
    point = 3;
    label = "zero-allocation hot paths";
    quick = false;
    results =
      [
        { Perf.name = "andrew_nfs"; events = 52185; host_seconds = 0.025 };
        { Perf.name = "andrew_snfs"; events = 41903; host_seconds = 0.0125 };
      ];
    campaign =
      Some
        {
          Perf.configs = 8;
          jobs = 2;
          seq_seconds = 0.44;
          par_seconds = 0.25;
        };
  }

let test_round_trip () =
  let json = Perf.to_json sample_point in
  let back = Perf.of_json json in
  Alcotest.(check bool) "round trip" true (back = sample_point);
  (* and stability: re-rendering parses to the same value again *)
  Alcotest.(check string) "stable render" json (Perf.to_json back)

let test_round_trip_no_campaign () =
  let p = { sample_point with Perf.campaign = None; quick = true } in
  let back = Perf.of_json (Perf.to_json p) in
  Alcotest.(check bool) "round trip without campaign" true (back = p)

let test_key_order () =
  (* successive points must diff cleanly, so the key order is part of
     the schema *)
  let json = Perf.to_json sample_point in
  let pos key =
    let pat = "\"" ^ key ^ "\"" in
    let rec find i =
      if i + String.length pat > String.length json then
        Alcotest.failf "key %s missing" key
      else if String.sub json i (String.length pat) = pat then i
      else find (i + 1)
    in
    find 0
  in
  let order =
    [
      "schema_version";
      "point";
      "label";
      "quick";
      "results";
      "name";
      "events";
      "host_seconds";
      "events_per_sec";
      "campaign";
      "configs";
      "jobs";
      "seq_seconds";
      "par_seconds";
      "speedup";
    ]
  in
  ignore
    (List.fold_left
       (fun prev key ->
         let p = pos key in
         Alcotest.(check bool) (key ^ " after previous key") true (p > prev);
         p)
       (-1) order)

let test_derived_fields () =
  let r = { Perf.name = "x"; events = 1000; host_seconds = 0.5 } in
  Alcotest.(check (float 1e-9)) "events/sec" 2000.0 (Perf.events_per_sec r);
  let degenerate = { r with Perf.host_seconds = 0.0 } in
  Alcotest.(check (float 0.0)) "degenerate eps" 0.0
    (Perf.events_per_sec degenerate);
  let c =
    { Perf.configs = 8; jobs = 2; seq_seconds = 1.0; par_seconds = 0.5 }
  in
  Alcotest.(check (float 1e-9)) "speedup" 2.0 (Perf.speedup c)

let test_find_result () =
  (match Perf.find_result sample_point "andrew_snfs" with
  | Some r -> Alcotest.(check int) "events" 41903 r.Perf.events
  | None -> Alcotest.fail "andrew_snfs not found");
  Alcotest.(check bool)
    "missing bench" true
    (Perf.find_result sample_point "no_such" = None)

let test_malformed () =
  let rejects s =
    match Perf.of_json s with
    | exception Perf.Malformed _ -> ()
    | _ -> Alcotest.failf "accepted malformed input %S" s
  in
  rejects "";
  rejects "{";
  rejects "[]";
  rejects {|{"schema_version": 999, "point": 0}|};
  (* lexically bad numbers and escapes are malformed too, not a
     stray Failure from the number or escape decoder *)
  rejects "-";
  rejects {|{"schema_version": 1e}|};
  rejects {|{"label": "\uZZZZ"}|};
  (* truncated object *)
  let json = Perf.to_json sample_point in
  rejects (String.sub json 0 (String.length json / 2))

let test_filename_and_next_index () =
  Alcotest.(check string) "filename" "BENCH_4.json" (Perf.filename 4);
  let existing = [ "BENCH_0.json"; "BENCH_1.json"; "BENCH_3.json" ] in
  Alcotest.(check int)
    "first free slot" 2
    (Perf.next_index ~exists:(fun f -> List.mem f existing));
  Alcotest.(check int) "empty dir" 0 (Perf.next_index ~exists:(fun _ -> false))

let test_write_refuses_overwrite () =
  let path = Filename.temp_file "bench" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* the temp file already exists: the trajectory is append-only *)
      (match Perf.write ~path sample_point with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "overwrote an existing point");
      Sys.remove path;
      (match Perf.write ~path sample_point with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "fresh write failed: %s" msg);
      let ic = open_in path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool)
        "written point parses back" true
        (Perf.of_json contents = sample_point))

let test_regressions () =
  let before = sample_point in
  let slower =
    {
      sample_point with
      Perf.results =
        [
          (* andrew_nfs 30% slower, andrew_snfs within the limit *)
          { Perf.name = "andrew_nfs"; events = 52185; host_seconds = 0.0357 };
          { Perf.name = "andrew_snfs"; events = 41903; host_seconds = 0.0130 };
        ];
    }
  in
  (match Perf.regressions ~before ~after:slower ~max_drop:0.20 with
  | [ r ] ->
      Alcotest.(check string) "regressed bench" "andrew_nfs" r.Perf.bench;
      Alcotest.(check bool) "drop fraction" true (r.Perf.drop > 0.20)
  | other ->
      Alcotest.failf "expected one regression, got %d" (List.length other));
  Alcotest.(check bool)
    "same point passes" true
    (Perf.regressions ~before ~after:before ~max_drop:0.20 = [])

let () =
  Alcotest.run "bench_json"
    [
      ( "schema",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "round trip, no campaign" `Quick
            test_round_trip_no_campaign;
          Alcotest.test_case "key order" `Quick test_key_order;
          Alcotest.test_case "derived fields" `Quick test_derived_fields;
          Alcotest.test_case "find result" `Quick test_find_result;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "filename and next index" `Quick
            test_filename_and_next_index;
          Alcotest.test_case "append-only write" `Quick
            test_write_refuses_overwrite;
          Alcotest.test_case "regression gate" `Quick test_regressions;
        ] );
    ]
