(* The deterministic crash campaign end-to-end: each protocol stack
   survives the seeded schedule (server crash and reboot mid-Andrew,
   two client crashes without close, a partition that heals) with zero
   acknowledged-write loss, SNFS additionally completing the whole
   client-lifecycle story; and the same seed reproduces the run
   byte-for-byte, trace and metrics included. *)

module CE = Experiments.Crash_exp

let seed = 42L

let check_verdict (v : CE.verdict) =
  Alcotest.(check int)
    (v.CE.protocol ^ ": no acknowledged-write loss")
    0 v.CE.divergent;
  Alcotest.(check bool)
    (v.CE.protocol ^ ": surviving writes verified")
    true
    (v.CE.files_checked >= 2);
  Alcotest.(check bool) (v.CE.protocol ^ ": verdict ok") true v.CE.ok

let test_protocol protocol () = check_verdict (CE.run ~protocol ~seed ())

let test_snfs_lifecycle () =
  let v = CE.run ~protocol:CE.Snfs ~seed () in
  check_verdict v;
  match v.CE.lifecycle with
  | None -> Alcotest.fail "SNFS verdict carries no lifecycle stats"
  | Some st ->
      Alcotest.(check bool) "laundromat ran" true
        (st.Snfs.Snfs_server.laundromat_runs > 0);
      Alcotest.(check bool) "crashed clients demoted" true
        (st.Snfs.Snfs_server.demotions >= 3);
      Alcotest.(check int) "client1 reaped from Courtesy (lifetime)" 1
        st.Snfs.Snfs_server.reaped_courtesy;
      Alcotest.(check int) "client2 reaped as Expirable (conflict)" 1
        st.Snfs.Snfs_server.reaped_expirable;
      Alcotest.(check bool) "partitioned client revived" true
        (st.Snfs.Snfs_server.revivals >= 1);
      Alcotest.(check bool)
        "courtesy client resumed without reopen or reap" true
        v.CE.courtesy_resumed

(* same seed, observability on: the trace JSON and the metrics CSV of
   two runs must be byte-identical *)
let test_determinism () =
  let observe () =
    let trace = Obs.Trace.create () in
    let metrics = Obs.Metrics.create () in
    let v = CE.run ~trace ~metrics ~protocol:CE.Snfs ~seed () in
    (v, Obs.Chrome.to_string trace, Obs.Metrics.to_csv metrics)
  in
  let v1, trace1, csv1 = observe () in
  let v2, trace2, csv2 = observe () in
  Alcotest.(check bool) "verdicts identical" true (v1 = v2);
  Alcotest.(check bool) "traces are non-trivial" true
    (String.length trace1 > 10_000);
  Alcotest.(check bool) "trace JSON byte-identical" true (trace1 = trace2);
  Alcotest.(check bool) "metrics CSV byte-identical" true (csv1 = csv2)

(* Seeds 1-25 on every protocol, each run ending in its oracle verdict
   or in an aborted simulation: a process failure, which Crash_exp.run
   lets escape. The aborts are ROADMAP item 1's known bug (a retried
   CREATE re-executed after the reboot wiped the duplicate-request
   cache); the list empties when that is fixed. Any other exception,
   or a seed moving between ok, failed and abort, fails the test. *)
let known_aborts =
  [
    (CE.Nfs, [ 9; 10; 11; 12; 14; 16; 19; 21; 22; 25 ]);
    (CE.Rfs, [ 8; 10; 11; 13; 16; 20; 21; 23; 24 ]);
    (CE.Kent, [ 3; 4; 5; 7; 10; 11 ]);
  ]

let test_seed_sweep () =
  let outcome protocol seed =
    match CE.run ~protocol ~seed:(Int64.of_int seed) () with
    | v -> if v.CE.ok then "ok" else "failed"
    | exception e ->
        let msg = Printexc.to_string e in
        if String.starts_with ~prefix:"process " msg then "abort" else raise e
  in
  List.iter
    (fun protocol ->
      let aborts =
        Option.value ~default:[] (List.assoc_opt protocol known_aborts)
      in
      let expected =
        List.init 25 (fun i ->
            (i + 1, if List.mem (i + 1) aborts then "abort" else "ok"))
      in
      Alcotest.(check (list (pair int string)))
        (CE.protocol_name protocol ^ " outcomes, seeds 1-25")
        expected
        (List.init 25 (fun i -> (i + 1, outcome protocol (i + 1)))))
    CE.all_protocols

let () =
  Alcotest.run "crash"
    [
      ( "campaign",
        [
          Alcotest.test_case "nfs" `Slow (test_protocol CE.Nfs);
          Alcotest.test_case "snfs lifecycle" `Slow test_snfs_lifecycle;
          Alcotest.test_case "rfs" `Slow (test_protocol CE.Rfs);
          Alcotest.test_case "kent" `Slow (test_protocol CE.Kent);
          Alcotest.test_case "seeds 1-25, every protocol" `Slow
            test_seed_sweep;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same bytes" `Slow test_determinism;
        ] );
    ]
