(* snfs_lint — AST-based static analysis over the source tree.

   Usage: snfs_lint [ROOT] [--json FILE] [--sarif FILE]
                    [--baseline FILE] [--write-baseline FILE]
                    [--rules a,b,...] [--skip-rules a,b,...] [--stats]

   Runs the Analysis.Driver passes over ROOT (default ".")'s
   lib/bin/test/examples trees, prints GNU-style
   [path:line:col: error: [rule] message] findings, optionally writes
   the full deterministic JSON report and/or a SARIF 2.1.0 report, and
   exits non-zero if any finding is not absorbed by the baseline file
   (default ROOT/lint-baseline when present). --write-baseline records
   the current findings as the accepted baseline (bootstrap; the goal
   is an empty one). --rules restricts the run to the named passes;
   --skip-rules runs everything but the named ones (parse errors are
   always reported). --stats prints per-pass wall time and finding
   counts to stderr. *)

let help () =
  print_endline
    "usage: snfs_lint [ROOT] [options]\n\n\
     Run the AST static-analysis passes over ROOT (default \".\") and\n\
     exit 1 if any finding is not absorbed by the baseline.\n\n\
     options:\n\
    \  --json FILE            write the deterministic JSON report to FILE\n\
    \  --sarif FILE           write a SARIF 2.1.0 report to FILE\n\
    \  --baseline FILE        absorb findings listed in FILE\n\
    \                         (default: ROOT/lint-baseline when present)\n\
    \  --write-baseline FILE  record the current findings as the baseline\n\
    \  --rules a,b,...        run only the named passes\n\
    \  --skip-rules a,b,...   run every pass except the named ones\n\
    \  --stats                print per-pass timing/finding counts to stderr\n\
    \  --help                 show this message\n\n\
     passes:";
  List.iter
    (fun p ->
      Printf.printf "  %-16s %s\n" p.Analysis.Pass.name p.Analysis.Pass.doc)
    Analysis.Driver.passes;
  exit 0

let usage () =
  prerr_endline
    "usage: snfs_lint [ROOT] [--json FILE] [--sarif FILE] [--baseline FILE] \
     [--write-baseline FILE] [--rules a,b,...] [--skip-rules a,b,...] \
     [--stats]";
  exit 2

let split_rules s = String.split_on_char ',' s |> List.filter (( <> ) "")

let () =
  let root = ref "." and json = ref None and baseline_file = ref None in
  let sarif = ref None and stats = ref false in
  let write_baseline = ref None in
  let only = ref None and skip = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | "--sarif" :: file :: rest ->
        sarif := Some file;
        parse rest
    | "--baseline" :: file :: rest ->
        baseline_file := Some file;
        parse rest
    | "--write-baseline" :: file :: rest ->
        write_baseline := Some file;
        parse rest
    | "--rules" :: names :: rest ->
        only := Some (split_rules names);
        parse rest
    | "--skip-rules" :: names :: rest ->
        skip := Some (split_rules names);
        parse rest
    | "--stats" :: rest ->
        stats := true;
        parse rest
    | "--help" :: _ -> help ()
    | ("--json" | "--sarif" | "--baseline" | "--write-baseline" | "--rules"
      | "--skip-rules")
      :: [] ->
        usage ()
    | arg :: rest ->
        root := arg;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let baseline =
    match !baseline_file with
    | Some f -> Analysis.Baseline.of_string (read f)
    | None ->
        let default = Filename.concat !root "lint-baseline" in
        if Sys.file_exists default then
          Analysis.Baseline.of_string (read default)
        else Analysis.Baseline.empty
  in
  let inputs = Analysis.Driver.load_tree !root in
  let r =
    try
      Analysis.Driver.analyze ~baseline ?only:!only ?skip:!skip
        ~clock:Sys.time inputs
    with Analysis.Driver.Unknown_rule rule ->
      Printf.eprintf
        "snfs_lint: unknown rule '%s' (run snfs_lint --help for the list)\n"
        rule;
      exit 2
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Analysis.Finding.report_to_json r.Analysis.Driver.findings)))
    !json;
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Analysis.Sarif.to_string ~rules:Analysis.Driver.rule_docs
               r.Analysis.Driver.findings)))
    !sarif;
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Analysis.Baseline.to_string r.Analysis.Driver.findings)))
    !write_baseline;
  if !stats then prerr_string (Analysis.Driver.stats_to_string r);
  List.iter
    (fun f -> print_endline (Analysis.Finding.to_string f))
    r.Analysis.Driver.fresh;
  (match r.Analysis.Driver.baselined with
  | [] -> ()
  | bs ->
      Printf.eprintf "snfs_lint: %d baselined finding(s) suppressed\n"
        (List.length bs));
  match r.Analysis.Driver.fresh with
  | [] -> ()
  | fs ->
      Printf.eprintf "snfs_lint: %d finding(s)\n" (List.length fs);
      exit 1
