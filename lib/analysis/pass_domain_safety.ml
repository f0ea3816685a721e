open Parsetree

let name = "domain-safety"

(* The contract that makes Domain-parallel campaign sweeps
   byte-identical to sequential runs (DESIGN §11.2): code that can run
   inside a fanned job must not touch shared mutable process state
   unless that state is an [Atomic.t] or lives behind a [Domain.DLS]
   key. This pass enforces the contract structurally: it classifies
   every toplevel binding as safe (Atomic, DLS key) or mutable (ref
   cell, mutable container, mutable-record or array literal), marks the
   Domain fan-out entry points ([Domain.spawn] and
   [Experiments.Sweep.map] job thunks — which is also how [Campaign]
   jobs run), and reports any mutable global reachable from fanned code
   over the whole-program call graph, so a helper in another library
   that pokes a shared table is caught even though the fan-out site
   never names it. A second rule keeps [Domain.DLS] slots private to
   their owning wrapper module: a qualified [Domain.DLS.get M.key]
   access from outside the defining module is exactly how per-domain
   isolation gets bypassed. *)

let in_scope path = Source.under "lib" path || Source.under "examples" path

(* applications whose thunk/function argument runs in other domains *)
let fanout_suffixes = [ [ "Domain"; "spawn" ]; [ "Sweep"; "map" ] ]

let mutable_ctor_suffixes =
  [
    ([ "Hashtbl"; "create" ], "Hashtbl");
    ([ "Queue"; "create" ], "Queue");
    ([ "Stack"; "create" ], "Stack");
    ([ "Buffer"; "create" ], "Buffer");
    ([ "Bytes"; "create" ], "Bytes");
    ([ "Bytes"; "make" ], "Bytes");
    ([ "Array"; "make" ], "Array");
    ([ "Array"; "init" ], "Array");
    ([ "Array"; "create_float" ], "Array");
  ]

let rec unwrap e =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> unwrap inner
  | _ -> e

(* how a toplevel binding holds mutable state, if it does *)
type classification =
  | Safe_atomic
  | Dls_key
  | Mutable of string (* human description *)
  | Inert

let classify records e =
  let e = unwrap (Astutil.uncurry_pipes e) in
  match e.pexp_desc with
  | Pexp_apply (head, _) -> (
      match Astutil.path_of_expr head with
      | Some p when Astutil.has_suffix p [ "Atomic"; "make" ] -> Safe_atomic
      | Some p when Astutil.has_suffix p [ "Domain"; "DLS"; "new_key" ] ->
          Dls_key
      | Some [ "ref" ] -> Mutable "ref cell"
      | Some p -> (
          match
            List.find_opt
              (fun (suff, _) -> Astutil.has_suffix p suff)
              mutable_ctor_suffixes
          with
          | Some (_, what) -> Mutable (what ^ " container")
          | None -> Inert)
      | None -> Inert)
  | Pexp_record (fields, base) ->
      let labels =
        List.filter_map (fun (lid, _) -> Astutil.flatten lid.Asttypes.txt) fields
      in
      if Records.literal_mutable records labels ~closed:(base = None) then
        Mutable "mutable record literal"
      else Inert
  | Pexp_array _ -> Mutable "array literal"
  | _ -> Inert

(* every raw identifier path mentioned in [e], in source order *)
let raw_paths e =
  let acc = ref [] in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match Astutil.flatten txt with
        | Some p -> acc := p :: !acc
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  List.rev !acc

(* Walk one file: collect fan-out roots (resolved through the call
   graph) and the cross-module DLS-access findings. *)
let scan_file cg (file : Source.t) structure ~roots ~findings =
  let resolve module_path p =
    Callgraph.resolve_at cg ~file:file.Source.path ~module_path p
  in
  let scan_expr module_path label binding_body =
    let add label id = roots := (label, id) :: !roots in
    let add_refs_of e =
      List.iter
        (fun rp -> List.iter (add label) (resolve module_path rp))
        (raw_paths e)
    in
    let expr it e =
      (match (Astutil.uncurry_pipes e).pexp_desc with
      | Pexp_apply (head, args) -> (
          match Astutil.path_of_expr head with
          | Some p when List.exists (Astutil.has_suffix p) fanout_suffixes ->
              let opaque = ref false in
              List.iter
                (fun (_, a) ->
                  if Astutil.is_lambda a then add_refs_of a
                  else
                    match Astutil.path_of_expr a with
                    | Some pa -> (
                        match resolve module_path pa with
                        | [] ->
                            (* a thunk the graph cannot name (a local
                               function or a parameter): over-approximate
                               with everything the enclosing binding
                               references *)
                            opaque := true
                        | ids -> List.iter (add label) ids)
                    | None -> () (* data argument (lists, labels) *))
                args;
              if !opaque then add_refs_of binding_body
          | Some p
            when Astutil.has_suffix p [ "Domain"; "DLS"; "get" ]
                 || Astutil.has_suffix p [ "Domain"; "DLS"; "set" ] -> (
              match args with
              | (_, key) :: _ -> (
                  match Astutil.path_of_expr key with
                  | Some (_ :: _ :: _ as kp) ->
                      let line, col = Astutil.pos key.pexp_loc in
                      findings :=
                        Finding.v ~path:file.Source.path ~line ~col ~rule:name
                          (Printf.sprintf
                             "Domain.DLS slot '%s' is accessed outside its \
                              owning module — per-domain state must stay \
                              behind the wrapper that defines the key"
                             (String.concat "." kp))
                        :: !findings
                  | _ -> ())
              | [] -> ())
          | _ -> ())
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.expr it binding_body
  in
  let rec walk_structure module_path items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } ->
            let rec unwrap_mod me =
              match me.pmod_desc with
              | Pmod_structure inner ->
                  walk_structure (module_path @ [ sub ]) inner
              | Pmod_functor (_, body) -> unwrap_mod body
              | Pmod_constraint (me, _) -> unwrap_mod me
              | _ -> ()
            in
            unwrap_mod pmb_expr
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let label =
                  match Astutil.pat_names vb.pvb_pat with
                  | [ x ] -> String.concat "." (module_path @ [ x ])
                  | _ -> String.concat "." module_path ^ ".<toplevel>"
                in
                scan_expr module_path label vb.pvb_expr)
              vbs
        | _ -> ())
      items
  in
  walk_structure [ Source.module_name file.Source.path ] structure

let run (ctx : Pass.ctx) =
  let cg = ctx.Pass.cg in
  (* classified mutable globals, keyed by call-graph node id *)
  let globals : (string, string * int * int * string) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (n : Callgraph.node) ->
      if in_scope n.Callgraph.path then
        match classify ctx.Pass.records n.Callgraph.body with
        | Mutable what ->
            let line, col = Astutil.pos n.Callgraph.body.pexp_loc in
            Hashtbl.replace globals n.Callgraph.id
              (n.Callgraph.path, line, col, what)
        | Safe_atomic | Dls_key | Inert -> ())
    (Callgraph.nodes cg);
  let roots = ref [] in
  let findings = ref [] in
  List.iter
    (fun (f : Source.t) ->
      match f.Source.impl with
      | Some structure when in_scope f.Source.path ->
          scan_file cg f structure ~roots ~findings
      | _ -> ())
    ctx.Pass.files;
  let reached = Callgraph.reachable cg (List.sort_uniq compare !roots) in
  Hashtbl.iter
    (fun id label ->
      match Hashtbl.find_opt globals id with
      | Some (path, line, col, what) ->
          findings :=
            Finding.v ~path ~line ~col ~rule:name
              (Printf.sprintf
                 "toplevel mutable state '%s' (%s) is reachable from the \
                  Domain fan-out in '%s' but is neither Atomic.t nor behind \
                  a Domain.DLS key — parallel sweep jobs would share it"
                 id what label)
            :: !findings
      | None -> ())
    reached;
  !findings

let pass =
  {
    Pass.name;
    doc =
      "shared mutable globals reachable from Domain fan-out, and DLS slots \
       escaping their owning module";
    run;
  }
