type outcome = Success | Timeout

let outcome_label = function Success -> "ok" | Timeout -> "timeout"

type t = {
  tbl : (string * string * outcome, Stats.Histogram.t) Hashtbl.t;
  mutable keys : (string * string * outcome) list; (* registration order *)
}

let create () = { tbl = Hashtbl.create 32; keys = [] }

let histogram_of t ~outcome ~prog ~proc =
  let key = (prog, proc, outcome) in
  match Hashtbl.find_opt t.tbl key with
  | Some h -> h
  | None ->
      let h =
        Stats.Histogram.create
          (prog ^ "." ^ proc ^ "." ^ outcome_label outcome)
      in
      Hashtbl.replace t.tbl key h;
      t.keys <- key :: t.keys;
      h

let histogram t ~prog ~proc = histogram_of t ~outcome:Success ~prog ~proc

let record t ?(outcome = Success) ~prog ~proc seconds =
  Stats.Histogram.add (histogram_of t ~outcome ~prog ~proc) seconds

let find t ~prog ~proc outcome = Hashtbl.find_opt t.tbl (prog, proc, outcome)

let errors t ~prog ~proc =
  match find t ~prog ~proc Timeout with
  | Some h -> Stats.Histogram.count h
  | None -> 0

let procs t =
  List.map (fun (prog, proc, _) -> (prog, proc)) t.keys
  |> List.sort_uniq compare

let is_empty t = t.keys = []

let total_samples t =
  List.fold_left
    (fun acc key -> acc + Stats.Histogram.count (Hashtbl.find t.tbl key))
    0 t.keys

let total_errors t =
  List.fold_left
    (fun acc (prog, proc, outcome) ->
      match outcome with
      | Timeout -> acc + errors t ~prog ~proc
      | Success -> acc)
    0
    (List.sort_uniq compare t.keys)

let ms seconds = Printf.sprintf "%.3f" (seconds *. 1e3)

(* One row per (procedure, outcome) actually recorded, so a run with
   timeouts shows where the timed-out calls' waiting went instead of
   folding them into a bare error count next to the success
   percentiles. Successes render first for each procedure. *)
let table t =
  let rows =
    List.concat_map
      (fun (prog, proc) ->
        List.filter_map
          (fun outcome ->
            match find t ~prog ~proc outcome with
            | None -> None
            | Some h when Stats.Histogram.count h = 0 -> None
            | Some h ->
                Some
                  [
                    prog ^ "." ^ proc;
                    outcome_label outcome;
                    string_of_int (Stats.Histogram.count h);
                    ms (Stats.Histogram.mean h);
                    ms (Stats.Histogram.percentile h 50.0);
                    ms (Stats.Histogram.percentile h 90.0);
                    ms (Stats.Histogram.percentile h 99.0);
                    ms (Stats.Histogram.max_value h);
                  ])
          [ Success; Timeout ])
      (procs t)
  in
  Stats.Table.render
    ~header:
      [
        "procedure"; "outcome"; "n"; "mean ms"; "p50 ms"; "p90 ms"; "p99 ms";
        "max ms";
      ]
    rows
