open Parsetree

let name = "fanout"

(* Server fan-out cost lint (ROADMAP item 1: the recall storm).

   The paper's §4.2 measurements hinge on per-request work staying
   O(1): a server that iterates its whole client or open-file table
   while answering one RPC turns every open into an O(clients) scan,
   and a callback broadcast into O(clients) RPC round-trips. This pass
   finds unbounded iteration on server paths:

   - the server-reachable set is the call-graph closure of every
     serve-head application — [Rpc.serve], or a binding found by
     fixpoint to forward a handler to one: the handler argument (a
     lambda's resolved references; a named handler's node; an
     unnameable local handler over-approximated by the enclosing
     binding), plus every toplevel binding of a file that applies a
     serve head — dispatch and the spawned maintenance loops alike;
   - inside that set it flags (a) iteration whose per-element function
     may yield — an O(n) blocking fan-out, the recall storm itself;
     (b) [Hashtbl.iter]/[fold], the same of a [Hashtbl.Make] instance,
     or [Sim.Inttbl.fold] over a live table;
     (c) [List] iteration over a *table projection* — a function
     inferred (by fixpoint over application heads) to build its result
     from a table fold.

   A site that is genuinely bounded (a per-file opener list capped by
   the protocol, a fixed report vector) is waived in place by a
   bounded-reason comment on the same or previous line (spelt in
   [Waiver]) — the reason is part of the idiom, so the bound is
   documented where the loop lives. The driver applies it like any
   waiver and reports one that suppresses nothing as stale. *)

let in_scope path = Source.under "lib" path || Source.under "examples" path

let serve_suffix = [ "Rpc"; "serve" ]

(* iteration heads: (suffix, element-fn position is first, data is last) *)
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

let suffix_in p suffixes = List.exists (Astutil.has_suffix p) suffixes

(* ---- table-projection inference ----

   a node is a projection if its body applies a projection primitive in
   synchronous position, or applies another projection node; fixpoint
   over the raw application heads recorded by the call graph; the
   primitives are the heads that build a value straight out of a
   table's full contents *)
let projections cg walks =
  let projection_prims = [ "Hashtbl"; "to_seq" ] :: walks in
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

(* ---- serve heads ----

   [Rpc.serve], and by fixpoint every binding that forwards a handler
   to a serve head: the head's handler argument (its last positional
   one) is one of the binding's parameters or applies one, itself or
   through the local lets it names, or hands one on as a value outside
   any lambda (a procedure list the wrapper extends). A wrapper around
   the transport thereby keeps the handlers its callers pass
   server-reachable; one that serves a handler of its own making
   forwards nothing. *)

let iter_expr f e =
  let expr it e =
    f e;
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e

let var e =
  match e.pexp_desc with Pexp_ident { txt = Lident x; _ } -> Some x | _ -> None

let rec params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, p, body) -> Astutil.pat_names p @ params body
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> params body
  | _ -> []

let forwards body handler =
  let params = params body and lets = Hashtbl.create 8 in
  iter_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_let (_, vbs, _) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> Hashtbl.replace lets txt vb.pvb_expr
              | _ -> ())
            vbs
      | _ -> ())
    body;
  (* a let is followed once: removing it is the visited mark *)
  let rec hands_on x =
    List.mem x params
    ||
    match Hashtbl.find_opt lets x with
    | Some e ->
        Hashtbl.remove lets x;
        applies e
    | None -> false
  and applies e =
    let found = ref (Option.fold ~none:false ~some:hands_on (var e)) in
    iter_expr
      (fun e ->
        match e.pexp_desc with
        | Pexp_apply (head, _) when not !found ->
            found := Option.fold ~none:false ~some:hands_on (var head)
        | _ -> ())
      e;
    !found
  in
  (* a value handed on outside any lambda (a lambda is a handler of
     the binding's own making), as in [procs @ basic core] *)
  let carries e =
    let found = ref false in
    let expr it e =
      match e.pexp_desc with
      | _ when !found -> ()
      | Pexp_fun _ | Pexp_function _ -> ()
      | Pexp_ident { txt = Lident x; _ } -> found := hands_on x
      | _ -> Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.expr it e;
    !found
  in
  applies handler || carries handler

let handler_arg args =
  match List.rev (List.filter (fun (l, _) -> l = Asttypes.Nolabel) args) with
  | (_, h) :: _ -> Some h
  | [] -> None

(* the argument lists of the serve-head applications in [e] *)
let serve_apps ~is_head e =
  let apps = ref [] in
  iter_expr
    (fun e ->
      match (Astutil.uncurry_pipes e).pexp_desc with
      | Pexp_apply (head, args) -> (
          match Astutil.path_of_expr head with
          | Some p when is_head p -> apps := args :: !apps
          | _ -> ())
      | _ -> ())
    e;
  !apps

(* [is_head resolve path]: does [path], resolved by [resolve], name a
   serve head? *)
let serve_heads cg =
  let heads = Hashtbl.create 8 in
  let is_head resolve p =
    Astutil.has_suffix p serve_suffix
    || Hashtbl.length heads > 0
       && List.exists (Hashtbl.mem heads) (resolve p)
  in
  let forwarding (n : Callgraph.node) =
    in_scope n.Callgraph.path
    && (not (Hashtbl.mem heads n.Callgraph.id))
    && List.exists
         (fun args ->
           match handler_arg args with
           | Some h -> forwards n.Callgraph.body h
           | None -> false)
         (serve_apps
            ~is_head:(is_head (Callgraph.resolve_in cg ~node:n.Callgraph.id))
            n.Callgraph.body)
  in
  let rec fixpoint () =
    match List.filter forwarding (Callgraph.nodes cg) with
    | [] -> ()
    | found ->
        List.iter
          (fun (n : Callgraph.node) -> Hashtbl.replace heads n.Callgraph.id ())
          found;
        fixpoint ()
  in
  fixpoint ();
  is_head

(* ---- server-reachable set ---- *)

let server_reachable cg =
  let is_head = serve_heads cg in
  let nodes = Callgraph.nodes cg in
  let roots (n : Callgraph.node) =
    let resolve = Callgraph.resolve_in cg ~node:n.Callgraph.id in
    match serve_apps ~is_head:(is_head resolve) n.Callgraph.body with
    | _ :: _ as apps when in_scope n.Callgraph.path ->
        (* every toplevel binding of a serve-applying file is server
           code: the serving binding itself, the handlers it dispatches
           to, the maintenance loops it spawns *)
        List.filter_map
          (fun (m : Callgraph.node) ->
            if m.Callgraph.path = n.Callgraph.path then
              Some (n.Callgraph.id, m.Callgraph.id)
            else None)
          nodes
        (* and a named handler that lives elsewhere *)
        @ List.concat_map
            (fun args ->
              match Option.bind (handler_arg args) Astutil.path_of_expr with
              | Some p -> List.map (fun id -> (id, id)) (resolve p)
              | None -> [])
            apps
    | _ -> []
  in
  Callgraph.reachable cg (List.sort_uniq compare (List.concat_map roots nodes))

(* ---- the per-node site scan ---- *)

let run (ctx : Pass.ctx) =
  let cg = ctx.Pass.cg in
  let reached = server_reachable cg in
  let walks = Astutil.table_walks_in ctx.Pass.files in
  let derived = projections cg walks in
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
      findings :=
        Finding.v ~path:n.Callgraph.path ~line ~col ~rule:name msg :: !findings
    in
    let expr it e =
      (match (Astutil.uncurry_pipes e).pexp_desc with
      | Pexp_apply (head, args) -> (
          match Astutil.path_of_expr head with
          | Some p
            when suffix_in p walks || suffix_in p list_iter_suffixes -> (
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
                  if suffix_in p walks then
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
