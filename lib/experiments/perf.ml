(* The perf trajectory: BENCH_<n>.json points.

   One point is committed at the repo root per optimization milestone;
   the sequence of files is the recorded events/sec trajectory that
   ROADMAP item 2 asks for. Everything here is pure (no clocks): the
   measurements are taken by bench/perf.ml, which owns the wall clock,
   and handed in as data. *)

type result = { name : string; events : int; host_seconds : float }

type campaign = {
  configs : int;
  jobs : int;
  seq_seconds : float;
  par_seconds : float;
}

type point = {
  schema_version : int;
  point : int;
  label : string;
  quick : bool;
  results : result list;
  campaign : campaign option;
}

let current_schema = 1

let events_per_sec r =
  if r.host_seconds <= 0.0 then 0.0
  else float_of_int r.events /. r.host_seconds

let speedup c = if c.par_seconds <= 0.0 then 0.0 else c.seq_seconds /. c.par_seconds

let find_result p name = List.find_opt (fun r -> String.equal r.name name) p.results

(* ---- emission ---- *)

(* shortest representation that parses back to the same float, so
   points round-trip exactly and stay readable *)
let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Key order is part of the format: fixed, documented, and asserted by
   test_bench_json, so `diff BENCH_0.json BENCH_1.json` lines up. The
   derived fields (events_per_sec, speedup) are written for human
   readers and recomputed, never parsed. *)
let to_json p =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"schema_version\": %d,\n" p.schema_version);
  add (Printf.sprintf "  \"point\": %d,\n" p.point);
  add (Printf.sprintf "  \"label\": \"%s\",\n" (escape p.label));
  add (Printf.sprintf "  \"quick\": %b,\n" p.quick);
  add "  \"results\": [";
  List.iteri
    (fun i r ->
      if i > 0 then add ",";
      add "\n    ";
      add
        (Printf.sprintf
           "{\"name\": \"%s\", \"events\": %d, \"host_seconds\": %s, \
            \"events_per_sec\": %s}"
           (escape r.name) r.events (float_str r.host_seconds)
           (float_str (events_per_sec r))))
    p.results;
  if p.results <> [] then add "\n  ";
  add "]";
  (match p.campaign with
  | None -> ()
  | Some c ->
      add ",\n  \"campaign\": ";
      add
        (Printf.sprintf
           "{\"configs\": %d, \"jobs\": %d, \"seq_seconds\": %s, \
            \"par_seconds\": %s, \"speedup\": %s}"
           c.configs c.jobs (float_str c.seq_seconds) (float_str c.par_seconds)
           (float_str (speedup c))));
  add "\n}\n";
  Buffer.contents buf

(* ---- parsing ---- *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

module J = Obs.Json

let field obj key =
  match obj with
  | J.Obj members -> (
      match List.assoc_opt key members with
      | Some v -> v
      | None -> malformed "missing field %S" key)
  | _ -> malformed "expected an object around %S" key

let as_int = function
  | J.Num f when Float.is_integer f -> int_of_float f
  | _ -> malformed "expected an integer"

let as_float = function J.Num f -> f | _ -> malformed "expected a number"
let as_string = function J.Str s -> s | _ -> malformed "expected a string"
let as_bool = function J.Bool b -> b | _ -> malformed "expected a bool"

let of_json s =
  let j = try J.parse s with J.Error msg -> malformed "%s" msg in
  let schema_version = as_int (field j "schema_version") in
  if schema_version <> current_schema then
    malformed "unsupported schema_version %d (this build reads %d)"
      schema_version current_schema;
  let result_of = function
    | J.Obj _ as r ->
        {
          name = as_string (field r "name");
          events = as_int (field r "events");
          host_seconds = as_float (field r "host_seconds");
        }
    | _ -> malformed "expected a result object"
  in
  let results =
    match field j "results" with
    | J.Arr rs -> List.map result_of rs
    | _ -> malformed "results must be an array"
  in
  let campaign =
    match j with
    | J.Obj members when List.mem_assoc "campaign" members ->
        let c = field j "campaign" in
        Some
          {
            configs = as_int (field c "configs");
            jobs = as_int (field c "jobs");
            seq_seconds = as_float (field c "seq_seconds");
            par_seconds = as_float (field c "par_seconds");
          }
    | _ -> None
  in
  {
    schema_version;
    point = as_int (field j "point");
    label = as_string (field j "label");
    quick = as_bool (field j "quick");
    results;
    campaign;
  }

(* ---- trajectory files ---- *)

let filename n = Printf.sprintf "BENCH_%d.json" n

let next_index ~exists =
  let rec go n = if exists (filename n) then go (n + 1) else n in
  go 0

(* The trajectory is append-only: refusing to overwrite is what makes
   an existing point trustworthy as a "before" in later comparisons. *)
let write ~path p =
  if Sys.file_exists path then
    Error
      (Printf.sprintf
         "%s already exists; bench points are append-only (pick the next \
          BENCH_<n>.json)"
         path)
  else begin
    let oc = open_out path in
    output_string oc (to_json p);
    close_out oc;
    Ok ()
  end

(* ---- regression gate ---- *)

type regression = {
  bench : string;
  before_eps : float;
  after_eps : float;
  drop : float; (* fraction of before_eps lost, > 0 = slower *)
}

let regressions ~before ~after ~max_drop =
  List.filter_map
    (fun (a : result) ->
      match find_result before a.name with
      | None -> None
      | Some b ->
          let b_eps = events_per_sec b and a_eps = events_per_sec a in
          if b_eps <= 0.0 then None
          else
            let drop = (b_eps -. a_eps) /. b_eps in
            if drop > max_drop then
              Some { bench = a.name; before_eps = b_eps; after_eps = a_eps; drop }
            else None)
    after.results
