open Parsetree

let name = "yield-iter"

(* Blocking inside a live table iteration.

   [Hashtbl.iter]/[fold] give no snapshot: under cooperative
   scheduling, if the per-binding lambda reaches a yield point, another
   task can run and add or remove table entries mid-iteration —
   OCaml's Hashtbl documents that as undefined behaviour, and in the
   simulator it shows up as clients skipped during a recall broadcast
   or visited twice by the laundromat. The per-element function's
   blocking-ness is judged by the interprocedural may-yield summaries,
   so a cross-library wrapper around [Rpc.call] is caught.

   The fix idiom is snapshot-then-iterate: fold the keys (or the
   [State_table.to_reports]-style projection) into a list first, then
   walk the list — the list iteration may still be a [fanout] finding,
   but it is no longer UB. *)

let in_scope path = Source.under "lib" path || Source.under "examples" path

let iter_suffixes = [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ] ]

let is_lambda e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

let check_file cg may_yield (file : Source.t) =
  match file.Source.impl with
  | Some structure when in_scope file.Source.path ->
      let findings = ref [] in
      let check_under module_path items =
        let fn_yields fn =
          if is_lambda fn then
            Effects.expr_blocks cg may_yield ~file:file.Source.path
              ~module_path fn
          else
            (* a partial application [(f t ~ctx)] is judged by its head *)
            let head =
              match (Astutil.uncurry_pipes fn).pexp_desc with
              | Pexp_apply (h, _) -> Astutil.path_of_expr h
              | _ -> Astutil.path_of_expr fn
            in
            match head with
            | Some p -> (
                match
                  Callgraph.resolve_at cg ~file:file.Source.path ~module_path
                    p
                with
                | [] -> Effects.is_primitive p
                | ids -> List.exists (Hashtbl.mem may_yield) ids)
            | None -> false
        in
        let expr it e =
          (match (Astutil.uncurry_pipes e).pexp_desc with
          | Pexp_apply (head, (_, fn) :: _) -> (
              match Astutil.path_of_expr head with
              | Some p
                when List.exists (Astutil.has_suffix p) iter_suffixes
                     && fn_yields fn ->
                  let line, col = Astutil.pos e.pexp_loc in
                  findings :=
                    Finding.v ~path:file.Source.path ~line ~col ~rule:name
                      (Printf.sprintf
                         "'%s' may yield inside a live table iteration — \
                          the table can be mutated at the yield point, \
                          which is undefined for Hashtbl; snapshot the \
                          bindings into a list first"
                         (String.concat "." p))
                    :: !findings
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e
        in
        let it = { Ast_iterator.default_iterator with expr } in
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter (fun vb -> it.expr it vb.pvb_expr) vbs
            | _ -> ())
          items
      in
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
    (fun f -> check_file ctx.Pass.cg ctx.Pass.may_yield f)
    ctx.Pass.files

let pass =
  {
    Pass.name;
    doc =
      "blocking calls inside live Hashtbl iteration (mutation at the yield \
       point is undefined)";
    run;
  }
