open Parsetree

let name = "hashtbl-order"

(* emission sinks: order of these calls is observable output *)
let is_sink path =
  match List.rev path with
  | [] -> false
  | last :: rev_prefix ->
      Astutil.contains last "callback" || Astutil.contains last "emit"
      || Astutil.contains last "deliver" || Astutil.contains last "instant"
      || Astutil.has_suffix path [ "Rpc"; "call" ]
      || List.exists (fun m -> m = "Trace" || m = "Chrome") rev_prefix

let last_is path names =
  match List.rev path with l :: _ -> List.mem l names | [] -> false

let is_sort path = last_is path [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

(* list transforms that preserve (a permutation-sensitive view of)
   element order *)
let is_propagator path =
  match path with
  | [ ("List" | "Array" | "Seq") ; f ] ->
      List.mem f
        [
          "rev"; "map"; "mapi"; "filter"; "filter_map"; "concat"; "concat_map";
          "append"; "flatten"; "rev_append"; "rev_map"; "of_seq"; "to_seq";
          "of_list"; "to_list";
        ]
  | _ -> false

let is_list_iteration path =
  match path with
  | [ ("List" | "Array" | "Seq"); f ] ->
      List.mem f [ "iter"; "iteri"; "map"; "mapi"; "fold_left"; "fold_right" ]
  | _ -> false

let head_path e = Astutil.path_of_expr e

(* does this expression (a lambda body, usually) apply a sink? *)
let has_sink_call e =
  let found = ref false in
  let expr it e =
    (match (Astutil.uncurry_pipes e).pexp_desc with
    | Pexp_apply (head, _) -> (
        match head_path head with
        | Some p when is_sink p -> found := true
        | _ -> ())
    | Pexp_ident { txt; _ } -> (
        (* a sink passed as a function value, e.g. [List.iter emit] *)
        match Astutil.flatten txt with
        | Some p when is_sink p -> found := true
        | _ -> ())
    | _ -> ());
    if not !found then Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let rec tainted env e =
  let e = Astutil.uncurry_pipes e in
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } -> List.mem x env
  | Pexp_apply (head, args) -> (
      match head_path head with
      | Some p when List.exists (Astutil.has_suffix p) Astutil.table_walks ->
          true
      | Some p when is_sort p -> false
      | Some p when is_propagator p ->
          List.exists (fun (_, a) -> tainted env a) args
      | _ -> false)
  | Pexp_constraint (e, _) -> tainted env e
  | Pexp_open (_, e) -> tainted env e
  | _ -> false

let check_file (file : Source.t) =
  match file.Source.impl with
  | None -> []
  | Some structure when Source.under "lib" file.Source.path ->
      let findings = ref [] in
      let add loc msg =
        let line, col = Astutil.pos loc in
        findings :=
          Finding.v ~path:file.Source.path ~line ~col ~rule:name msg
          :: !findings
      in
      let rec walk env e =
        let e = Astutil.uncurry_pipes e in
        match e.pexp_desc with
        | Pexp_let (_, vbs, body) ->
            List.iter (fun vb -> walk env vb.pvb_expr) vbs;
            let env' =
              List.fold_left
                (fun env vb ->
                  match Astutil.pat_names vb.pvb_pat with
                  | [ x ] ->
                      if tainted env vb.pvb_expr then x :: env
                      else List.filter (fun y -> y <> x) env
                  | names -> List.filter (fun y -> not (List.mem y names)) env)
                env vbs
            in
            walk env' body
        | Pexp_apply (head, args) ->
            (match head_path head with
            | Some p when Astutil.has_suffix p [ "Hashtbl"; "iter" ] ->
                if
                  List.exists
                    (fun (_, a) ->
                      match a.pexp_desc with
                      | Pexp_fun _ | Pexp_function _ -> has_sink_call a
                      | _ -> (
                          match head_path a with
                          | Some ap -> is_sink ap
                          | None -> false))
                    args
                then
                  add e.pexp_loc
                    "Hashtbl.iter body emits (trace/callback/RPC) in \
                     hash-bucket order; collect, sort, then emit"
            | Some p when is_sink p ->
                List.iter
                  (fun (_, a) ->
                    match a.pexp_desc with
                    | Pexp_ident { txt = Lident x; _ } when List.mem x env ->
                        add e.pexp_loc
                          (Printf.sprintf
                             "%s receives '%s', which carries Hashtbl \
                              iteration order; sort it first"
                             (String.concat "." p) x)
                    | _ ->
                        if tainted env a then
                          add e.pexp_loc
                            (Printf.sprintf
                               "%s receives a Hashtbl-iteration-ordered \
                                value; sort it first"
                               (String.concat "." p)))
                  args
            | Some p when is_list_iteration p ->
                let list_arg_tainted =
                  List.exists (fun (_, a) -> tainted env a) args
                in
                let lambda_sinks =
                  List.exists
                    (fun (_, a) ->
                      match a.pexp_desc with
                      | Pexp_fun _ | Pexp_function _ -> has_sink_call a
                      | _ -> (
                          match head_path a with
                          | Some ap -> is_sink ap
                          | None -> false))
                    args
                in
                if list_arg_tainted && lambda_sinks then
                  add e.pexp_loc
                    (Printf.sprintf
                       "%s emits over a Hashtbl-iteration-ordered list; \
                        sort it first"
                       (String.concat "." p))
            | _ -> ());
            walk env head;
            List.iter (fun (_, a) -> walk env a) args
        | Pexp_sequence (a, b) ->
            walk env a;
            walk env b
        | Pexp_ifthenelse (c, t, f) ->
            walk env c;
            walk env t;
            Option.iter (walk env) f
        | Pexp_match (s, cases) | Pexp_try (s, cases) ->
            walk env s;
            List.iter
              (fun c ->
                let bound = Astutil.pat_names c.pc_lhs in
                let env' = List.filter (fun y -> not (List.mem y bound)) env in
                Option.iter (walk env') c.pc_guard;
                walk env' c.pc_rhs)
              cases
        | Pexp_fun (_, default, pat, body) ->
            Option.iter (walk env) default;
            let bound = Astutil.pat_names pat in
            walk (List.filter (fun y -> not (List.mem y bound)) env) body
        | Pexp_function cases ->
            List.iter
              (fun c ->
                let bound = Astutil.pat_names c.pc_lhs in
                let env' = List.filter (fun y -> not (List.mem y bound)) env in
                Option.iter (walk env') c.pc_guard;
                walk env' c.pc_rhs)
              cases
        | _ ->
            (* generic recursion for remaining shapes *)
            let expr _it child = walk env child in
            let it = { Ast_iterator.default_iterator with expr } in
            Ast_iterator.default_iterator.expr it e
      in
      let value_binding _it vb = walk [] vb.pvb_expr in
      let it = { Ast_iterator.default_iterator with value_binding } in
      it.structure it structure;
      !findings
  | Some _ -> []

let pass =
  {
    Pass.name;
    doc = "Hashtbl iteration order reaching trace/callback/RPC emission";
    run = (fun ctx -> List.concat_map check_file ctx.Pass.files);
  }
