open Parsetree

let name = "fanout"

(* Server fan-out cost lint (ROADMAP item 1: the recall storm).

   The paper's §4.2 measurements hinge on per-request work staying
   O(1): a server that iterates its whole client or open-file table
   while answering one RPC turns every open into an O(clients) scan,
   and a callback broadcast into O(clients) RPC round-trips. This pass
   finds unbounded iteration on server paths:

   - the server-reachable set is the call-graph closure of every
     [Rpc.serve] application: the handler argument (a lambda's resolved
     references; a named handler's node; an unnameable local handler
     over-approximated by the enclosing binding), plus every toplevel
     binding of a file that applies [Rpc.serve] — dispatch and the
     spawned maintenance loops alike;
   - inside that set it flags (a) iteration whose per-element function
     may yield — an O(n) blocking fan-out, the recall storm itself;
     (b) [Hashtbl.iter]/[fold] over a live table; (c) [List] iteration
     over a *table projection* — a function inferred (by fixpoint over
     application heads) to build its result from a table fold.

   A site that is genuinely bounded (a per-file opener list capped by
   the protocol, a fixed report vector) is waived in place with
   [(* snfs-fanout: bounded <reason> *)] on the same or previous line —
   the reason is part of the idiom, so the bound is documented where
   the loop lives. *)

let in_scope path = Source.under "lib" path || Source.under "examples" path

let serve_suffix = [ "Rpc"; "serve" ]

(* iteration heads: (suffix, element-fn position is first, data is last) *)
let table_iter_suffixes = [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ] ]

let list_iter_suffixes =
  [
    [ "List"; "iter" ];
    [ "List"; "iteri" ];
    [ "List"; "map" ];
    [ "List"; "mapi" ];
    [ "List"; "concat_map" ];
    [ "List"; "filter_map" ];
    [ "List"; "filter" ];
    [ "List"; "fold_left" ];
    [ "List"; "for_all" ];
    [ "List"; "exists" ];
  ]

(* heads that build a value straight out of a table's full contents *)
let projection_prims =
  [ [ "Hashtbl"; "fold" ]; [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "to_seq" ] ]

let suffix_in p suffixes = List.exists (Astutil.has_suffix p) suffixes

(* ---- the bounded-reason waiver ---- *)

let bounded_waived ~src ~line =
  let lines = String.split_on_char '\n' src in
  let has i =
    i >= 1
    && i <= List.length lines
    && Astutil.contains (List.nth lines (i - 1)) "snfs-fanout: bounded"
  in
  has line || has (line - 1)

(* ---- table-projection inference ----

   a node is a projection if its body applies a projection primitive in
   synchronous position, or applies another projection node; fixpoint
   over the raw application heads recorded by the call graph *)
let projections cg =
  let derived : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let nodes = Callgraph.nodes cg in
  let pass_once () =
    let changed = ref false in
    List.iter
      (fun (n : Callgraph.node) ->
        if not (Hashtbl.mem derived n.Callgraph.id) then
          let heads = Callgraph.sync_heads cg n.Callgraph.id in
          let hit =
            List.exists
              (fun h ->
                suffix_in h projection_prims
                || List.exists (Hashtbl.mem derived)
                     (Callgraph.resolve_in cg ~node:n.Callgraph.id h))
              heads
          in
          if hit then begin
            Hashtbl.replace derived n.Callgraph.id ();
            changed := true
          end)
      nodes;
    !changed
  in
  while pass_once () do
    ()
  done;
  derived

(* ---- server-reachable set ---- *)

let server_reachable cg (files : Source.t list) =
  let roots = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      if in_scope n.Callgraph.path then
        let heads = Callgraph.sync_heads cg n.Callgraph.id in
        if List.exists (fun h -> Astutil.has_suffix h serve_suffix) heads
        then begin
          (* the serving binding itself: dispatch plus everything the
             enclosing binding wires up (maintenance loops, opaque
             local handlers) *)
          roots := (n.Callgraph.id, n.Callgraph.id) :: !roots;
          (* every toplevel binding of a serve-applying file is server
             code — the handlers it dispatches to live there *)
          List.iter
            (fun (m : Callgraph.node) ->
              if m.Callgraph.path = n.Callgraph.path then
                roots := (n.Callgraph.id, m.Callgraph.id) :: !roots)
            (Callgraph.nodes cg)
        end)
    (Callgraph.nodes cg);
  (* named handler arguments of [Rpc.serve] that live elsewhere *)
  List.iter
    (fun (f : Source.t) ->
      match f.Source.impl with
      | Some structure when in_scope f.Source.path ->
          let expr it e =
            (match (Astutil.uncurry_pipes e).pexp_desc with
            | Pexp_apply (head, args) -> (
                match Astutil.path_of_expr head with
                | Some p when Astutil.has_suffix p serve_suffix ->
                    List.iter
                      (fun (_, a) ->
                        match Astutil.path_of_expr a with
                        | Some pa ->
                            List.iter
                              (fun id -> roots := (id, id) :: !roots)
                              (Callgraph.resolve_at cg ~file:f.Source.path
                                 ~module_path:
                                   [ Source.module_name f.Source.path ]
                                 pa)
                        | None -> ())
                      args
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
            structure
      | _ -> ())
    files;
  Callgraph.reachable cg (List.sort_uniq compare !roots)

(* ---- the per-node site scan ---- *)

let run (ctx : Pass.ctx) =
  let cg = ctx.Pass.cg in
  let reached = server_reachable cg ctx.Pass.files in
  let derived = projections cg in
  let src_of =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (f : Source.t) -> Hashtbl.replace tbl f.Source.path f.Source.src)
      ctx.Pass.files;
    fun path -> Option.value ~default:"" (Hashtbl.find_opt tbl path)
  in
  let findings = ref [] in
  let scan_node (n : Callgraph.node) label =
    let resolve p = Callgraph.resolve_in cg ~node:n.Callgraph.id p in
    let fn_yields fn =
      if Astutil.is_lambda fn then
        Effects.expr_blocks cg ctx.Pass.may_yield ~file:n.Callgraph.path
          ~module_path:n.Callgraph.module_path fn
      else
        (* a partial application [(f t ~ctx)] is judged by its head *)
        let head =
          match (Astutil.uncurry_pipes fn).pexp_desc with
          | Pexp_apply (h, _) -> Astutil.path_of_expr h
          | _ -> Astutil.path_of_expr fn
        in
        match head with
        | Some p -> (
            match resolve p with
            | [] -> Effects.is_primitive p
            | ids -> List.exists (Hashtbl.mem ctx.Pass.may_yield) ids)
        | None -> false
    in
    let data_projection data =
      let data = Astutil.uncurry_pipes data in
      let head =
        match data.pexp_desc with
        | Pexp_apply (h, _) -> Astutil.path_of_expr h
        | _ -> Astutil.path_of_expr data
      in
      match head with
      | Some p -> List.exists (Hashtbl.mem derived) (resolve p)
      | None -> false
    in
    let projection_name data =
      let data = Astutil.uncurry_pipes data in
      let head =
        match data.pexp_desc with
        | Pexp_apply (h, _) -> Astutil.path_of_expr h
        | _ -> Astutil.path_of_expr data
      in
      match head with
      | Some p -> (
          match List.filter (Hashtbl.mem derived) (resolve p) with
          | id :: _ -> id
          | [] -> String.concat "." p)
      | None -> "?"
    in
    let report loc msg =
      let line, col = Astutil.pos loc in
      if not (bounded_waived ~src:(src_of n.Callgraph.path) ~line) then
        findings :=
          Finding.v ~path:n.Callgraph.path ~line ~col ~rule:name msg
          :: !findings
    in
    let expr it e =
      (match (Astutil.uncurry_pipes e).pexp_desc with
      | Pexp_apply (head, args) -> (
          match Astutil.path_of_expr head with
          | Some p
            when suffix_in p table_iter_suffixes
                 || suffix_in p list_iter_suffixes -> (
              let positional = List.map snd args in
              let fn = match positional with a :: _ -> Some a | [] -> None in
              let data =
                match List.rev positional with a :: _ -> Some a | [] -> None
              in
              let head_name = String.concat "." p in
              match fn with
              | Some fn_e when fn_yields fn_e ->
                  report e.pexp_loc
                    (Printf.sprintf
                       "'%s' runs a blocking call per element on a server \
                        path (reachable from '%s') — an O(n) RPC/disk \
                        fan-out per request; bound it or waive with \
                        'snfs-fanout: bounded <reason>'"
                       head_name label)
              | _ ->
                  if suffix_in p table_iter_suffixes then
                    report e.pexp_loc
                      (Printf.sprintf
                         "'%s' walks a live table on a server path \
                          (reachable from '%s') — per-request cost grows \
                          with table size; bound it or waive with \
                          'snfs-fanout: bounded <reason>'"
                         head_name label)
                  else
                    match data with
                    | Some d when data_projection d ->
                        report e.pexp_loc
                          (Printf.sprintf
                             "'%s' iterates the table projection '%s' on a \
                              server path (reachable from '%s') — the list \
                              grows with table size; bound it or waive \
                              with 'snfs-fanout: bounded <reason>'"
                             head_name (projection_name d) label)
                    | _ -> ())
          | _ -> ())
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.expr it n.Callgraph.body
  in
  List.iter
    (fun (n : Callgraph.node) ->
      if in_scope n.Callgraph.path then
        match Hashtbl.find_opt reached n.Callgraph.id with
        | Some label -> scan_node n label
        | None -> ())
    (Callgraph.nodes cg);
  !findings

let pass =
  {
    Pass.name;
    doc =
      "unbounded table iteration and O(n) blocking fan-out on server RPC \
       and callback paths";
    run;
  }
