type input = { path : string; src : string }

type stat = { s_pass : string; s_findings : int; s_time_ms : float }

type result = {
  findings : Finding.t list;
  fresh : Finding.t list;
  baselined : Finding.t list;
  stats : stat list;
  live_waivers : (string * int) list;
  files_scanned : int;
}

let passes =
  [
    Pass_determinism.pass;
    Pass_hashtbl_order.pass;
    Pass_yield_race.pass;
    Pass_yield_iter.pass;
    Pass_domain_safety.pass;
    Pass_fanout.pass;
    Pass_hot_alloc.pass;
    Pass_purity.pass;
    Pass_interface_drift.pass;
    Pass_missing_mli.pass;
  ]

exception Unknown_rule of string

let select_passes ?only ?skip () =
  let known n = List.exists (fun p -> p.Pass.name = n) passes in
  let check names =
    List.iter (fun n -> if not (known n) then raise (Unknown_rule n)) names
  in
  Option.iter check only;
  Option.iter check skip;
  List.filter
    (fun p ->
      (match only with
      | Some names -> List.mem p.Pass.name names
      | None -> true)
      && match skip with
         | Some names -> not (List.mem p.Pass.name names)
         | None -> true)
    passes

(* Build the shared pass context: parse everything, then pre-compute
   the fact tables every interprocedural pass consumes — the global
   mutable-field-name set, the whole-program call graph and the
   may-yield effect summaries. *)
let context inputs =
  let files = List.map (fun i -> Source.parse ~path:i.path i.src) inputs in
  let structures = List.filter_map (fun f -> f.Source.impl) files in
  let signatures = List.filter_map (fun f -> f.Source.intf) files in
  let cg = Callgraph.build files in
  {
    Pass.files;
    mutable_fields = Astutil.mutable_field_names structures signatures;
    cg;
    may_yield = Effects.may_yield cg;
  }

let round_ms t = Float.round (t *. 10.) /. 10.

let analyze ?(baseline = Baseline.empty) ?only ?skip ?(clock = fun () -> 0.)
    inputs =
  let passes = select_passes ?only ?skip () in
  let ctx = context inputs in
  let parse_errors =
    List.filter_map
      (fun f ->
        match f.Source.parse_error with
        | Some (line, msg) ->
            Some
              (Finding.v ~path:f.Source.path ~line ~rule:"parse-error" msg)
        | None -> None)
      ctx.Pass.files
  in
  let stats = ref [] in
  let raw =
    parse_errors
    @ List.concat_map
        (fun p ->
          let t0 = clock () in
          let found = p.Pass.run ctx in
          let t1 = clock () in
          stats :=
            {
              s_pass = p.Pass.name;
              s_findings = List.length found;
              s_time_ms = round_ms ((t1 -. t0) *. 1000.);
            }
            :: !stats;
          found)
        passes
  in
  (* the waivers of every file the passes saw, with whether each one
     suppresses a raw finding *)
  let waivers =
    List.concat_map
      (fun (f : Source.t) ->
        if f.Source.parse_error <> None then []
        else
          let here =
            List.filter (fun (r : Finding.t) -> r.Finding.path = f.Source.path) raw
          in
          List.map
            (fun w ->
              ( f.Source.path,
                w,
                List.exists
                  (fun (r : Finding.t) ->
                    Waiver.covers w ~rule:r.Finding.rule ~line:r.Finding.line)
                  here ))
            (Waiver.scan f.Source.src))
      ctx.Pass.files
  in
  let waived (r : Finding.t) =
    List.exists
      (fun (path, w, _) ->
        path = r.Finding.path
        && Waiver.covers w ~rule:r.Finding.rule ~line:r.Finding.line)
      waivers
  in
  (* a waiver of a rule that ran and found nothing there is stale *)
  let ran = List.map (fun p -> p.Pass.name) passes in
  let stale =
    List.filter_map
      (fun (path, (w : Waiver.t), used) ->
        if used || not (List.mem w.Waiver.rule ran) then None
        else
          Some
            (Finding.v ~path ~line:w.Waiver.line ~rule:"stale-waiver"
               (Printf.sprintf
                  "'snfs-lint: allow %s' suppresses no %s finding on this \
                   line or the next; delete it"
                  w.Waiver.rule w.Waiver.rule)))
      waivers
  in
  let live_waivers =
    List.fold_left
      (fun acc (_, (w : Waiver.t), used) ->
        if not used then acc
        else
          let n = Option.value ~default:0 (List.assoc_opt w.Waiver.rule acc) in
          (w.Waiver.rule, n + 1) :: List.remove_assoc w.Waiver.rule acc)
      [] waivers
    |> List.sort compare
  in
  let kept = List.filter (fun r -> not (waived r)) raw @ stale in
  let findings = List.sort_uniq Finding.compare kept in
  let fresh, baselined = Baseline.apply baseline findings in
  {
    findings;
    fresh;
    baselined;
    stats =
      List.sort (fun a b -> String.compare a.s_pass b.s_pass) !stats;
    live_waivers;
    files_scanned = List.length ctx.Pass.files;
  }

let stats_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "files scanned: %d\n" r.files_scanned);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-16s %5d finding(s) %8.1f ms\n" s.s_pass
           s.s_findings s.s_time_ms))
    r.stats;
  Buffer.add_string buf
    (Printf.sprintf "live waivers: %d\n"
       (List.fold_left (fun n (_, k) -> n + k) 0 r.live_waivers));
  List.iter
    (fun (rule, k) ->
      Buffer.add_string buf (Printf.sprintf "  %-16s %3d\n" rule k))
    r.live_waivers;
  Buffer.contents buf

let rule_docs =
  ("parse-error", "files the compiler frontend rejected")
  :: ( "stale-waiver",
       "snfs-lint waivers that suppress no finding of a rule that ran" )
  :: List.map (fun p -> (p.Pass.name, p.Pass.doc)) passes

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_tree root =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    let entries = Sys.readdir abs in
    Array.sort compare entries;
    Array.iter
      (fun name ->
        if String.length name > 0 && name.[0] <> '.' && name.[0] <> '_' then
          let rel' = Filename.concat rel name in
          let abs' = Filename.concat root rel' in
          if Sys.is_directory abs' then walk rel'
          else if
            Filename.check_suffix name ".ml"
            || Filename.check_suffix name ".mli"
          then acc := { path = rel'; src = read_file abs' } :: !acc)
      entries
  in
  List.iter
    (fun dir ->
      if Sys.file_exists (Filename.concat root dir) then walk dir)
    [ "lib"; "bin"; "test"; "examples" ];
  List.rev !acc
