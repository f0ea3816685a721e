(* SARIF 2.1.0 export.

   One run, one tool ("snfs_lint"), rules straight from the pass
   registry, one result per finding. The output is byte-deterministic
   for identical inputs: fixed field order, rules sorted by id,
   results in [Finding.compare] order (the driver's own order), no
   timestamps or absolute paths. Columns are 1-based in SARIF where
   the compiler (and [Finding.col]) is 0-based, hence the [col + 1]. *)

let to_string ~rules findings =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add
    "  \"$schema\": \
     \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  add "  \"version\": \"2.1.0\",\n";
  add "  \"runs\": [\n";
  add "    {\n";
  add "      \"tool\": {\n";
  add "        \"driver\": {\n";
  add "          \"name\": \"snfs_lint\",\n";
  add "          \"rules\": [";
  let rules = List.sort compare rules in
  List.iteri
    (fun i (id, doc) ->
      if i > 0 then add ",";
      add "\n            ";
      add
        (Printf.sprintf
           "{\"id\": \"%s\", \"shortDescription\": {\"text\": \"%s\"}}"
           (Finding.json_escape id) (Finding.json_escape doc)))
    rules;
  if rules <> [] then add "\n          ";
  add "]\n";
  add "        }\n";
  add "      },\n";
  add "      \"results\": [";
  List.iteri
    (fun i (f : Finding.t) ->
      if i > 0 then add ",";
      add "\n        {\n";
      add
        (Printf.sprintf "          \"ruleId\": \"%s\",\n"
           (Finding.json_escape f.rule));
      add "          \"level\": \"error\",\n";
      add
        (Printf.sprintf "          \"message\": {\"text\": \"%s\"},\n"
           (Finding.json_escape f.message));
      add "          \"locations\": [\n";
      add "            {\n";
      add "              \"physicalLocation\": {\n";
      add
        (Printf.sprintf
           "                \"artifactLocation\": {\"uri\": \"%s\"},\n"
           (Finding.json_escape f.path));
      add
        (Printf.sprintf
           "                \"region\": {\"startLine\": %d, \
            \"startColumn\": %d}\n"
           f.line (f.col + 1));
      add "              }\n";
      add "            }\n";
      add "          ]\n";
      add "        }")
    findings;
  if findings <> [] then add "\n      ";
  add "]\n";
  add "    }\n";
  add "  ]\n";
  add "}\n";
  Buffer.contents buf
