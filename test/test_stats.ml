(* Tests for counters, time series, and table rendering. *)

let contains s sub =
  let n = String.length sub in
  let rec loop i =
    if i + n > String.length s then false
    else String.sub s i n = sub || loop (i + 1)
  in
  loop 0

let test_counter_basic () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "read";
  Stats.Counter.incr c "read";
  Stats.Counter.incr c ~n:3 "write";
  Alcotest.(check int) "read" 2 (Stats.Counter.get c "read");
  Alcotest.(check int) "write" 3 (Stats.Counter.get c "write");
  Alcotest.(check int) "missing" 0 (Stats.Counter.get c "lookup");
  Alcotest.(check int) "total" 5 (Stats.Counter.total c);
  Alcotest.(check int) "total_of" 2 (Stats.Counter.total_of c [ "read"; "nope" ])

let test_counter_to_list_sorted () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "zeta";
  Stats.Counter.incr c "alpha";
  Alcotest.(check (list (pair string int)))
    "sorted" [ ("alpha", 1); ("zeta", 1) ] (Stats.Counter.to_list c)

let test_counter_snapshot_diff () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c ~n:5 "read";
  let snap = Stats.Counter.snapshot c in
  Stats.Counter.incr c ~n:2 "read";
  Stats.Counter.incr c "write";
  let d = Stats.Counter.diff c snap in
  Alcotest.(check int) "read delta" 2 (Stats.Counter.get d "read");
  Alcotest.(check int) "write delta" 1 (Stats.Counter.get d "write");
  (* snapshot unaffected by later increments *)
  Alcotest.(check int) "snapshot frozen" 5 (Stats.Counter.get snap "read")

let test_counter_cell_stays_live () =
  (* Rpc caches each procedure's cell once: later lookups and
     increments by name must reach that same cell *)
  let c = Stats.Counter.create () in
  let cell = Stats.Counter.cell c "x" in
  incr cell;
  Stats.Counter.incr c ~n:2 "x";
  Alcotest.(check bool) "same cell" true (Stats.Counter.cell c "x" == cell);
  incr cell;
  Alcotest.(check int) "cached bumps counted" 4 (Stats.Counter.get c "x");
  Alcotest.(check int) "total" 4 (Stats.Counter.total c)

let test_counter_diff_clamped () =
  let earlier = Stats.Counter.create () in
  Stats.Counter.incr earlier ~n:5 "read";
  Stats.Counter.incr earlier ~n:2 "write";
  let later = Stats.Counter.create () in
  (* "read" went backwards (the snapshots came in the wrong order),
     "write" is unchanged: neither may appear in the interval *)
  Stats.Counter.incr later ~n:3 "read";
  Stats.Counter.incr later ~n:2 "write";
  Stats.Counter.incr later "open";
  let d = Stats.Counter.diff later earlier in
  Alcotest.(check (list (pair string int)))
    "only positive deltas" [ ("open", 1) ] (Stats.Counter.to_list d);
  Alcotest.(check int) "clamped to zero" 0 (Stats.Counter.get d "read")

let test_timeseries_binning () =
  let ts = Stats.Timeseries.create ~bin:10.0 "calls" in
  Stats.Timeseries.add ts ~time:0.0 1.0;
  Stats.Timeseries.add ts ~time:9.99 1.0;
  Stats.Timeseries.add ts ~time:10.0 1.0;
  Stats.Timeseries.add ts ~time:35.0 4.0;
  Alcotest.(check int) "bins" 4 (Stats.Timeseries.bins ts);
  Alcotest.(check (float 1e-9)) "bin 0" 2.0 (Stats.Timeseries.value ts 0);
  Alcotest.(check (float 1e-9)) "bin 1" 1.0 (Stats.Timeseries.value ts 1);
  Alcotest.(check (float 1e-9)) "bin 2 empty" 0.0 (Stats.Timeseries.value ts 2);
  Alcotest.(check (float 1e-9)) "bin 3" 4.0 (Stats.Timeseries.value ts 3);
  Alcotest.(check (float 1e-9)) "rate" 0.4 (Stats.Timeseries.rate ts 3)

let test_timeseries_growth () =
  let ts = Stats.Timeseries.create ~bin:1.0 "x" in
  Stats.Timeseries.add ts ~time:500.0 1.0;
  Alcotest.(check int) "many bins" 501 (Stats.Timeseries.bins ts);
  Alcotest.(check (float 1e-9)) "far bin" 1.0 (Stats.Timeseries.value ts 500)

let test_timeseries_empty () =
  let ts = Stats.Timeseries.create ~bin:10.0 "empty" in
  Alcotest.(check int) "no bins" 0 (Stats.Timeseries.bins ts);
  Alcotest.(check (float 0.0)) "value of untouched bin" 0.0
    (Stats.Timeseries.value ts 0);
  Alcotest.(check (float 0.0)) "rate of untouched bin" 0.0
    (Stats.Timeseries.rate ts 0);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "to_list empty" [] (Stats.Timeseries.to_list ts)

let test_timeseries_boundaries () =
  let ts = Stats.Timeseries.create ~bin:10.0 "edges" in
  (* a sample exactly on a bin boundary opens the next bin: [k*bin] is
     the half-open start of bin k *)
  Stats.Timeseries.add ts ~time:0.0 1.0;
  Stats.Timeseries.add ts ~time:10.0 1.0;
  Stats.Timeseries.add ts ~time:20.0 1.0;
  Alcotest.(check int) "three bins" 3 (Stats.Timeseries.bins ts);
  List.iter
    (fun i ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "bin %d" i)
        1.0
        (Stats.Timeseries.value ts i))
    [ 0; 1; 2 ];
  Alcotest.check_raises "negative time rejected"
    (Invalid_argument "Timeseries.add: negative time") (fun () ->
      Stats.Timeseries.add ts ~time:(-0.001) 1.0)

let test_timeseries_final_bin_rate () =
  let ts = Stats.Timeseries.create ~bin:10.0 "tail" in
  Stats.Timeseries.add ts ~time:5.0 2.0;
  (* the final bin was touched only at its left edge (zero width of it
     is covered), yet the rate stays finite: the divisor is the nominal
     bin width, never the covered span *)
  Stats.Timeseries.add ts ~time:20.0 4.0;
  Alcotest.(check int) "bins" 3 (Stats.Timeseries.bins ts);
  let r = Stats.Timeseries.rate ts 2 in
  Alcotest.(check bool) "finite" true (Float.is_finite r);
  Alcotest.(check (float 1e-9)) "nominal-width rate" 0.4 r;
  Alcotest.(check (float 1e-9)) "mid-bin rate" 0.2 (Stats.Timeseries.rate ts 0)

let prop_timeseries_total_preserved =
  QCheck.Test.make ~name:"sum of bins equals sum of additions" ~count:100
    QCheck.(list (pair (float_range 0.0 100.0) (float_range 0.0 10.0)))
    (fun adds ->
      let ts = Stats.Timeseries.create ~bin:7.0 "t" in
      List.iter (fun (time, v) -> Stats.Timeseries.add ts ~time v) adds;
      let total_added = List.fold_left (fun a (_, v) -> a +. v) 0.0 adds in
      let total_binned =
        List.fold_left (fun a (_, v) -> a +. v) 0.0 (Stats.Timeseries.to_list ts)
      in
      Float.abs (total_added -. total_binned) < 1e-6)

let test_histogram_basic () =
  let h = Stats.Histogram.create "lat" in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.Histogram.mean h);
  Alcotest.(check (float 0.0)) "empty p99" 0.0 (Stats.Histogram.percentile h 99.0);
  List.iter (Stats.Histogram.add h) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.Histogram.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.Histogram.percentile h 100.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.Histogram.max_value h);
  (* adding after a percentile query re-sorts correctly *)
  Stats.Histogram.add h 0.5;
  Alcotest.(check (float 1e-9)) "new min" 0.5 (Stats.Histogram.percentile h 0.0)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range 0.0 100.0))
    (fun samples ->
      let h = Stats.Histogram.create "x" in
      List.iter (Stats.Histogram.add h) samples;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let values = List.map (Stats.Histogram.percentile h) ps in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing values)

let test_table_render () =
  let s =
    Stats.Table.render
      ~header:[ "phase"; "NFS"; "SNFS" ]
      [ [ "Copy"; "40"; "30" ]; [ "Make"; "246"; "206" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 5 (List.length lines);
  (* all non-empty lines are equally wide *)
  let widths = List.filter (fun l -> l <> "") lines |> List.map String.length in
  (match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "width" w w') rest
  | [] -> Alcotest.fail "no lines");
  Alcotest.(check bool) "contains data" true (contains s "Copy")

let test_table_arity_check () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.render: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Stats.Table.render ~header:[ "a"; "b" ] [ [ "only-one" ] ]))

let test_table_alignment () =
  let s = Stats.Table.render ~header:[ "name"; "n" ] [ [ "x"; "123" ] ] in
  (* the numeric column is right-aligned: "   n" over "123" *)
  Alcotest.(check bool) "right aligned header" true (contains s "   n")

let test_sparkline () =
  let s = Stats.Table.sparkline [ 0.0; 1.0; 2.0; 4.0 ] in
  Alcotest.(check int) "one char per value" 4 (String.length s);
  Alcotest.(check char) "max is #" '#' s.[3];
  let flat = Stats.Table.sparkline [ 0.0; 0.0 ] in
  Alcotest.(check string) "all zero" "  " flat

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "counter",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "to_list sorted" `Quick test_counter_to_list_sorted;
          Alcotest.test_case "snapshot/diff" `Quick test_counter_snapshot_diff;
          Alcotest.test_case "diff clamps regressions" `Quick
            test_counter_diff_clamped;
          Alcotest.test_case "cell stays live" `Quick
            test_counter_cell_stays_live;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "binning" `Quick test_timeseries_binning;
          Alcotest.test_case "growth" `Quick test_timeseries_growth;
          Alcotest.test_case "empty series" `Quick test_timeseries_empty;
          Alcotest.test_case "bin boundaries" `Quick
            test_timeseries_boundaries;
          Alcotest.test_case "zero-width final bin rate" `Quick
            test_timeseries_final_bin_rate;
        ]
        @ qc [ prop_timeseries_total_preserved ] );
      ( "histogram",
        [ Alcotest.test_case "basic" `Quick test_histogram_basic ]
        @ qc [ prop_histogram_percentile_monotone ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
    ]
