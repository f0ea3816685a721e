type input = { path : string; src : string }

type stat = { s_pass : string; s_findings : int; s_time_ms : float }

type result = {
  findings : Finding.t list;
  fresh : Finding.t list;
  baselined : Finding.t list;
  stats : stat list;
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
  let src_of =
    let tbl = Hashtbl.create (List.length inputs) in
    List.iter (fun i -> Hashtbl.replace tbl i.path i.src) inputs;
    fun path -> Hashtbl.find_opt tbl path
  in
  let kept =
    List.filter
      (fun (f : Finding.t) ->
        match src_of f.Finding.path with
        | Some src ->
            not (Waiver.waived ~src ~rule:f.Finding.rule ~line:f.Finding.line)
        | None -> true)
      raw
  in
  let findings = List.sort_uniq Finding.compare kept in
  let fresh, baselined = Baseline.apply baseline findings in
  {
    findings;
    fresh;
    baselined;
    stats =
      List.sort (fun a b -> String.compare a.s_pass b.s_pass) !stats;
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
  Buffer.contents buf

let rule_docs =
  ("parse-error", "files the compiler frontend rejected")
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
