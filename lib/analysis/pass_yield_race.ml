open Parsetree

let name = "yield-race"

(* Blocking heads are judged by the effect inference's per-binding
   summaries; only the deferring vocabulary is consulted here. *)
let defers p = List.exists (Astutil.has_suffix p) Effects.deferring_suffixes

(* where a tainted binding's value came from, for the
   claim-and-clear exemption *)
type origin = Field of string | Refcell of string | Lookup

type entry = {
  ident : string;
  bound_line : int;
  what : string;
  origin : origin;
  mutable crossed : bool;
  mutable reported : bool;
}

let is_lambda e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

(* ---- the main walk ---- *)

let in_scope path = Source.under "lib" path || Source.under "examples" path

let taint_source mutable_fields e =
  let e = Astutil.uncurry_pipes e in
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match Astutil.flatten txt with
      | Some p -> (
          match List.rev p with
          | f :: _ when Hashtbl.mem mutable_fields f ->
              Some (Printf.sprintf "mutable field '%s'" f, Field f)
          | _ -> None)
      | None -> None)
  | Pexp_apply (head, args) -> (
      match Astutil.path_of_expr head with
      | Some p
        when Astutil.has_suffix p [ "Hashtbl"; "find" ]
             || Astutil.has_suffix p [ "Hashtbl"; "find_opt" ] ->
          Some ("Hashtbl lookup", Lookup)
      | Some [ "!" ] ->
          let origin =
            match args with
            | [ (_, { pexp_desc = Pexp_ident { txt = Lident r; _ }; _ }) ] ->
                Refcell r
            | _ -> Lookup
          in
          Some ("ref cell", origin)
      | _ -> None)
  | _ -> None

(* Check one file against a blocking-head judgement. [blocking] is
   consulted per application head, in the scope of the module path the
   application appears under. *)
let check_file ~blocking (file : Source.t) mutable_fields =
  match file.Source.impl with
  | Some structure when in_scope file.Source.path ->
      let findings = ref [] in
      let check_under module_path structure_items =
        let report en loc =
          if not en.reported then begin
            en.reported <- true;
            let line, col = Astutil.pos loc in
            findings :=
              Finding.v ~path:file.Source.path ~line ~col ~rule:name
                (Printf.sprintf
                   "'%s' (%s, read at line %d) is used after a blocking \
                    call; the state may have changed at the yield point — \
                    re-read it"
                   en.ident en.what en.bound_line)
              :: !findings
          end
        in
        let is_blocking_head head =
          match Astutil.path_of_expr head with
          | Some p -> blocking ~module_path p
          | None -> false
        in
        let drop bound env =
          List.filter (fun en -> not (List.mem en.ident bound)) env
        in
        let rec walk env e =
          let e = Astutil.uncurry_pipes e in
          match e.pexp_desc with
          | Pexp_ident { txt = Lident x; _ } -> (
              match List.find_opt (fun en -> en.ident = x) env with
              | Some en when en.crossed -> report en e.pexp_loc
              | _ -> ())
          | Pexp_let (_, vbs, body) ->
              List.iter (fun vb -> walk env vb.pvb_expr) vbs;
              let env' =
                List.fold_left
                  (fun env vb ->
                    match Astutil.pat_names vb.pvb_pat with
                    | [ x ] -> (
                        let env = drop [ x ] env in
                        match taint_source mutable_fields vb.pvb_expr with
                        | Some (what, origin) ->
                            let line, _ = Astutil.pos vb.pvb_expr.pexp_loc in
                            {
                              ident = x;
                              bound_line = line;
                              what;
                              origin;
                              crossed = false;
                              reported = false;
                            }
                            :: env
                        | None -> env)
                    | names -> drop names env)
                  env vbs
              in
              walk env' body
          | Pexp_setfield (obj, { txt; _ }, rhs) ->
              (* bump-cell exemption: a binding used as a *store* target
                 after a yield is not a stale read — the cell is a
                 persistent identity object being updated in place (the
                 last_heard float-ref / per-caller cell idiom). Only
                 non-trivial receiver expressions are walked. *)
              (match obj.pexp_desc with
              | Pexp_ident { txt = Lident _; _ } -> ()
              | _ -> walk env obj);
              walk env rhs;
              (* claim-and-clear: overwriting the field a binding was read
                 from before any yield transfers ownership of the old
                 value to the binding — it is no longer a cached view *)
              (match Astutil.flatten txt with
              | Some p -> (
                  match List.rev p with
                  | f :: _ ->
                      List.iter
                        (fun en ->
                          if en.origin = Field f && not en.crossed then
                            en.reported <- true)
                        env
                  | [] -> ())
              | None -> ())
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Lident ":="; _ }; _ },
                [ (_, lhs); (_, rhs) ] ) ->
              (* bump-cell exemption, ref flavour: [cell := now] after a
                 yield updates the cell, it does not consume its stale
                 contents *)
              (match lhs.pexp_desc with
              | Pexp_ident { txt = Lident _; _ } -> ()
              | _ -> walk env lhs);
              walk env rhs;
              (match lhs.pexp_desc with
              | Pexp_ident { txt = Lident r; _ } ->
                  List.iter
                    (fun en ->
                      if en.origin = Refcell r && not en.crossed then
                        en.reported <- true)
                    env
              | _ -> ())
          | Pexp_apply (head, args) ->
              (* arguments evaluate before the call returns: uses of
                 already-crossed bindings in them are still reported, but
                 a binding does not cross at its own blocking call's
                 argument position *)
              walk env head;
              (match Astutil.path_of_expr head with
              | Some p when defers p ->
                  List.iter
                    (fun (_, a) ->
                      if is_lambda a then walk [] a else walk env a)
                    args
              | _ -> List.iter (fun (_, a) -> walk env a) args);
              if is_blocking_head head then
                List.iter (fun en -> en.crossed <- true) env
          | Pexp_fun (_, default, pat, body) ->
              Option.iter (walk env) default;
              walk (drop (Astutil.pat_names pat) env) body
          | Pexp_function cases | Pexp_match (_, cases) | Pexp_try (_, cases)
            ->
              (match e.pexp_desc with
              | Pexp_match (s, _) | Pexp_try (s, _) -> walk env s
              | _ -> ());
              List.iter
                (fun c ->
                  let env' = drop (Astutil.pat_names c.pc_lhs) env in
                  Option.iter (walk env') c.pc_guard;
                  walk env' c.pc_rhs)
                cases
          | _ ->
              let expr _it child = walk env child in
              let it = { Ast_iterator.default_iterator with expr } in
              Ast_iterator.default_iterator.expr it e
        in
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter (fun vb -> walk [] vb.pvb_expr) vbs
            | _ -> ())
          structure_items
      in
      (* nested modules re-enter with an extended module path, so head
         resolution sees the right scope *)
      let rec walk_structure module_path items =
        check_under module_path items;
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ }
              ->
                let rec unwrap me =
                  match me.pmod_desc with
                  | Pmod_structure inner ->
                      walk_structure (module_path @ [ sub ]) inner
                  | Pmod_functor (_, body) -> unwrap body
                  | Pmod_constraint (me, _) -> unwrap me
                  | _ -> ()
                in
                unwrap pmb_expr
            | _ -> ())
          items
      in
      walk_structure [ Source.module_name file.Source.path ] structure;
      !findings
  | _ -> []

let run (ctx : Pass.ctx) =
  List.concat_map
    (fun (f : Source.t) ->
      let blocking ~module_path p =
        Effects.blocking_head ctx.Pass.cg ctx.Pass.may_yield
          ~file:f.Source.path ~module_path p
      in
      check_file ~blocking f ctx.Pass.mutable_fields)
    ctx.Pass.files

let pass =
  {
    Pass.name;
    doc =
      "mutable-state reads held live across (interprocedurally inferred) \
       yield points";
    run;
  }
