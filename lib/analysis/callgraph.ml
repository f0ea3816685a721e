open Parsetree

(* The whole-program substrate under the interprocedural passes: one
   node per name a toplevel value binding binds anywhere in the
   workspace (nested modules and functor bodies included; a binding
   that binds no name, such as [let () = ...], is one node of its own),
   with every identifier reference resolved to node ids through the
   module-path machinery — [module X = M] aliases, [open M] scopes,
   library-wrapper prefixes (a reference [Netsim.Rpc.call] reaches the
   tree module [Rpc] by dropping unknown leading wrapper components),
   and functor application over-approximated by resolving
   parameter-qualified references against *every* argument module the
   functor is applied to outside test/. The expression forms
   [M.( ... )], [let open M in], [let module X = M in] and
   [let module X = F (A) in] scope the references beneath them the
   same way.

   References are recorded twice: [refs] (everything the body
   mentions) and [sync_refs] (everything outside a lambda handed to a
   deferring primitive such as [Engine.spawn] — code that runs in a
   later task and therefore neither blocks the binding nor runs under
   its caller). Effect inference follows [sync_refs]; reachability
   and interface drift follow [refs]. *)

type node = {
  id : string; (* "Module.Sub.binding" *)
  name : string;
  module_path : string list;
  path : string; (* source file *)
  line : int;
  col : int;
  body : expression;
}

type scope = {
  sc_opens : string list list; (* raw paths of every [open] in scope *)
  sc_aliases : (string * string list) list; (* module X = <raw path> *)
}

let no_scope = { sc_opens = []; sc_aliases = [] }

type t = {
  nodes : (string, node) Hashtbl.t;
  order : string list; (* node ids, sorted: the deterministic walk order *)
  modules : (string, unit) Hashtbl.t; (* every defined module path, joined *)
  scopes : (string, scope) Hashtbl.t; (* file -> its open/alias scope *)
  functor_params : (string, string list) Hashtbl.t; (* functor path -> params *)
  functor_args : (string, string list list) Hashtbl.t;
      (* functor path -> raw arg paths seen at any application *)
  refs_tbl : (string, string list) Hashtbl.t; (* resolved, deduped *)
  sync_refs_tbl : (string, string list) Hashtbl.t;
  sync_heads_tbl : (string, string list list) Hashtbl.t;
      (* raw application-head paths outside deferred thunks *)
}

let default_defer =
  [
    [ "Engine"; "spawn" ];
    [ "Engine"; "after" ];
    [ "Engine"; "at" ];
    [ "Metrics"; "register_poll" ];
  ]

let join = String.concat "."

(* ---- collection: modules, bindings, scopes, functor applications ---- *)

(* [rr_local]: the local opens and [let module] aliases the reference
   sits under, innermost first *)
type raw_ref = { rr_path : string list; rr_sync : bool; rr_local : scope }

(* a functor application [F (A) (B)], seen inside module [fa_module] *)
type raw_app = {
  fa_module : string list;
  fa_functor : string list;
  fa_args : string list list;
}

type raw_node = {
  rn_module : string list;
  rn_name : string;
  rn_path : string;
  rn_line : int;
  rn_col : int;
  rn_body : expression;
  rn_refs : raw_ref list;
  rn_heads : string list list; (* sync application heads *)
}

(* expand a leading alias component through a scope *)
let expand_aliases scope p =
  match p with
  | head :: rest -> (
      match List.assoc_opt head scope.sc_aliases with
      | Some target -> target @ rest
      | None -> p)
  | [] -> p

(* the module a [module X = ...] or [let module X = ...] makes [X] an
   alias of: [M] itself, or the functor [F] of [F (A) (B)], through
   which calls on [X] resolve *)
let rec alias_target me =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> Astutil.flatten txt
  | Pmod_apply (f, _) -> alias_target f
  | _ -> None

let scan_file (file : Source.t) structure =
  let root = Source.module_name file.Source.path in
  let opens = ref [] in
  let aliases = ref [] in
  let modules = ref [ [ root ] ] in
  let fparams = ref [] in
  let fapps = ref [] in
  let raw_nodes = ref [] in
  let record_functor_app mpath local me =
    (* [F (A) (B)]: remember A and B as argument candidates for F's
       parameters, by F's resolved-later raw path *)
    let rec peel acc m =
      match m.pmod_desc with
      | Pmod_apply (f, arg) -> (
          match arg.pmod_desc with
          | Pmod_ident { txt; _ } -> (
              match Astutil.flatten txt with
              | Some p -> peel (expand_aliases local p :: acc) f
              | None -> peel acc f)
          | _ -> peel acc f)
      | Pmod_ident { txt; _ } ->
          Option.map
            (fun f -> (expand_aliases local f, acc))
            (Astutil.flatten txt)
      | _ -> None
    in
    match peel [] me with
    | Some (fa_functor, (_ :: _ as fa_args)) ->
        fapps := { fa_module = mpath; fa_functor; fa_args } :: !fapps
    | _ -> ()
  in
  (* every ident path in [e], flagged sync/deferred and scoped by the
     local opens and modules above it; plus sync heads *)
  let collect_refs mpath e =
    let refs = ref [] and heads = ref [] in
    let rec expr ~sync ~local it e =
      let e = Astutil.uncurry_pipes e in
      let add p =
        refs := { rr_path = p; rr_sync = sync; rr_local = local } :: !refs
      in
      let sub ?(sync = sync) ?(local = local) child =
        expr ~sync ~local it child
      in
      let deeper = { it with Ast_iterator.expr = (fun _ child -> sub child) } in
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> Option.iter add (Astutil.flatten txt)
      | Pexp_apply (head, args) -> (
          match Astutil.path_of_expr head with
          | Some p ->
              if sync then heads := p :: !heads;
              add p;
              let defers = List.exists (Astutil.has_suffix p) default_defer in
              List.iter
                (fun (_, a) ->
                  sub ~sync:(sync && not (defers && Astutil.is_lambda a)) a)
                args
          | None ->
              sub head;
              List.iter (fun (_, a) -> sub a) args)
      | Pexp_open
          ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, body)
        -> (
          match Astutil.flatten txt with
          | Some p ->
              let o = expand_aliases local p in
              sub ~local:{ local with sc_opens = o :: local.sc_opens } body
          | None -> sub body)
      | Pexp_letmodule ({ txt = Some x; _ }, me, body) ->
          record_functor_app mpath local me;
          deeper.module_expr deeper me;
          let local =
            match alias_target me with
            | Some p ->
                let a = (x, expand_aliases local p) in
                { local with sc_aliases = a :: local.sc_aliases }
            | None -> local
          in
          sub ~local body
      | _ -> Ast_iterator.default_iterator.expr deeper e
    in
    expr ~sync:true ~local:no_scope Ast_iterator.default_iterator e;
    (!refs, List.rev !heads)
  in
  let add_binding mpath vb =
    let line, col = Astutil.pos vb.pvb_pat.ppat_loc in
    let refs, heads = collect_refs mpath vb.pvb_expr in
    let names =
      match Astutil.pat_names vb.pvb_pat with
      | [] -> [ Printf.sprintf "<toplevel:%d>" line ]
      | names -> names
    in
    List.iter
      (fun name ->
        raw_nodes :=
          {
            rn_module = mpath;
            rn_name = name;
            rn_path = file.Source.path;
            rn_line = line;
            rn_col = col;
            rn_body = vb.pvb_expr;
            rn_refs = refs;
            rn_heads = heads;
          }
          :: !raw_nodes)
      names
  in
  let rec walk_module mpath me ~params =
    match me.pmod_desc with
    | Pmod_structure items -> walk_structure mpath items ~params
    | Pmod_functor (fp, body) ->
        let params =
          match fp with
          | Named ({ txt = Some p; _ }, _) -> params @ [ p ]
          | _ -> params
        in
        walk_module mpath body ~params
    | Pmod_constraint (me, _) -> walk_module mpath me ~params
    | Pmod_apply _ -> record_functor_app mpath no_scope me
    | _ -> ()
  and walk_structure mpath items ~params =
    if params <> [] then fparams := (join mpath, params) :: !fparams;
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
          -> (
            match Astutil.flatten txt with
            | Some p -> opens := p :: !opens
            | None -> ())
        | Pstr_module { pmb_name = { txt = Some sub; _ }; pmb_expr; _ } -> (
            match pmb_expr.pmod_desc with
            | Pmod_ident _ | Pmod_apply _ ->
                (* module A = F (B): calls through A resolve into F *)
                Option.iter
                  (fun target -> aliases := (sub, target) :: !aliases)
                  (alias_target pmb_expr);
                record_functor_app mpath no_scope pmb_expr
            | _ ->
                let sub_path = mpath @ [ sub ] in
                modules := sub_path :: !modules;
                walk_module sub_path pmb_expr ~params:[])
        | Pstr_value (_, vbs) -> List.iter (add_binding mpath) vbs
        | _ -> ())
      items
  in
  walk_structure [ root ] structure ~params:[];
  ( { sc_opens = List.rev !opens; sc_aliases = List.rev !aliases },
    !modules,
    !fparams,
    !fapps,
    !raw_nodes )

(* ---- resolution ---- *)

(* a module path and each of its ancestors: [A.B] -> [A.B; A] *)
let rec ancestors m =
  match List.rev m with [] -> [] | _ :: up -> m :: ancestors (List.rev up)

(* candidate module paths a raw module prefix (empty for a bare
   ident) may denote, given the current module and the scope *)
let module_candidates t scope current prefix =
  let known m = Hashtbl.mem t.modules (join m) in
  let out = ref [] in
  let add m = if known m && not (List.mem m !out) then out := m :: !out in
  (* relative to the current module and each of its ancestors *)
  List.iter (fun anc -> add (anc @ prefix)) (ancestors current);
  (* library-wrapper over-approximation: drop unknown leading
     components until a defined module matches *)
  let rec drop p =
    match p with
    | [] -> ()
    | _ :: rest ->
        add p;
        drop rest
  in
  (* through each [open], whose own wrapper components drop the same
     way ([Nfs.Wire.( Proc.create )] reaches [Wire.Proc.create]) *)
  List.iter (fun o -> drop (expand_aliases scope o @ prefix)) scope.sc_opens;
  (* absolute, and an opened library wrapper: [open Netsim] +
     [Rpc.call] *)
  drop prefix;
  List.rev !out

(* resolve one raw reference path to node ids; [local] scopes go
   before the file's *)
let resolve_raw t ~file ~current ?(local = no_scope) raw =
  let scope =
    match Hashtbl.find_opt t.scopes file with
    | Some s ->
        {
          sc_opens = local.sc_opens @ s.sc_opens;
          sc_aliases = local.sc_aliases @ s.sc_aliases;
        }
    | None -> local
  in
  let raw = expand_aliases scope raw in
  (* substitute functor parameters: inside functor [F (X : S)], a
     reference [X.f] is over-approximated by [A.f] for every [A] that
     [F] is applied to outside test/ *)
  let raws =
    match raw with
    | head :: rest when rest <> [] -> (
        let fkey = join current in
        match Hashtbl.find_opt t.functor_params fkey with
        | Some params when List.mem head params -> (
            match Hashtbl.find_opt t.functor_args fkey with
            | Some argss -> List.map (fun a -> a @ rest) argss
            | None -> [])
        | _ -> [ raw ])
    | _ -> [ raw ]
  in
  let resolve_one raw =
    match List.rev raw with
    | [] -> []
    | name :: rev_prefix ->
        List.filter_map
          (fun m ->
            let id = join (m @ [ name ]) in
            if Hashtbl.mem t.nodes id then Some id else None)
          (module_candidates t scope current (List.rev rev_prefix))
  in
  List.concat_map resolve_one raws |> List.sort_uniq compare

(* ---- construction ---- *)

let build (files : Source.t list) =
  let t =
    {
      nodes = Hashtbl.create 1024;
      order = [];
      modules = Hashtbl.create 256;
      scopes = Hashtbl.create 128;
      functor_params = Hashtbl.create 8;
      functor_args = Hashtbl.create 8;
      refs_tbl = Hashtbl.create 1024;
      sync_refs_tbl = Hashtbl.create 1024;
      sync_heads_tbl = Hashtbl.create 1024;
    }
  in
  let all_raw = ref [] in
  List.iter
    (fun (f : Source.t) ->
      match f.Source.impl with
      | Some structure ->
          let scope, modules, fparams, fapps, raws =
            scan_file f structure
          in
          Hashtbl.replace t.scopes f.Source.path scope;
          List.iter (fun m -> Hashtbl.replace t.modules (join m) ()) modules;
          List.iter
            (fun (fp, params) -> Hashtbl.replace t.functor_params fp params)
            fparams;
          all_raw := (f.Source.path, scope, fapps, raws) :: !all_raw
      | None -> ())
    files;
  (* register nodes first so resolution can see the whole tree *)
  List.iter
    (fun (_, _, _, raws) ->
      List.iter
        (fun rn ->
          let id = join (rn.rn_module @ [ rn.rn_name ]) in
          if not (Hashtbl.mem t.nodes id) then
            Hashtbl.replace t.nodes id
              {
                id;
                name = rn.rn_name;
                module_path = rn.rn_module;
                path = rn.rn_path;
                line = rn.rn_line;
                col = rn.rn_col;
                body = rn.rn_body;
              })
        raws)
    !all_raw;
  (* functor applications: attribute raw argument paths to the
     functor's node-table identity (resolved as a module path from the
     module the application sits in). Applications in test/ are left
     out: a test's instance of a program functor is no program use of
     its argument, and no pass judges test code. *)
  List.iter
    (fun (file, scope, fapps, _) ->
      if not (Source.under "test" file) then
        List.iter
          (fun fa ->
            let args = List.map (expand_aliases scope) fa.fa_args in
            List.iter
              (fun fp ->
                let key = join fp in
                let prev =
                  Option.value ~default:[]
                    (Hashtbl.find_opt t.functor_args key)
                in
                Hashtbl.replace t.functor_args key (args @ prev))
              (module_candidates t scope fa.fa_module
                 (expand_aliases scope fa.fa_functor)))
          fapps)
    !all_raw;
  (* resolve every node's references; bindings that share an id (a
     shadowed binding, same-named modules in two libraries) merge
     theirs, as their references resolve to the one node *)
  let merge tbl id l =
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl id) in
    Hashtbl.replace tbl id (List.sort_uniq compare (l @ prev))
  in
  List.iter
    (fun (file, _, _, raws) ->
      List.iter
        (fun rn ->
          let id = join (rn.rn_module @ [ rn.rn_name ]) in
          let resolve r =
            resolve_raw t ~file ~current:rn.rn_module ~local:r.rr_local
              r.rr_path
          in
          merge t.refs_tbl id (List.concat_map resolve rn.rn_refs);
          merge t.sync_refs_tbl id
            (List.concat_map
               (fun r -> if r.rr_sync then resolve r else [])
               rn.rn_refs);
          let heads =
            Option.value ~default:[] (Hashtbl.find_opt t.sync_heads_tbl id)
          in
          Hashtbl.replace t.sync_heads_tbl id (rn.rn_heads @ heads))
        raws)
    !all_raw;
  let order =
    Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort compare
  in
  { t with order }

(* ---- queries ---- *)

let nodes t = List.filter_map (Hashtbl.find_opt t.nodes) t.order
let find t id = Hashtbl.find_opt t.nodes id

let refs t id = Option.value ~default:[] (Hashtbl.find_opt t.refs_tbl id)

let sync_refs t id =
  Option.value ~default:[] (Hashtbl.find_opt t.sync_refs_tbl id)

let sync_heads t id =
  Option.value ~default:[] (Hashtbl.find_opt t.sync_heads_tbl id)

let resolve_at t ~file ~module_path raw =
  resolve_raw t ~file ~current:module_path raw

let resolve_in t ~node raw =
  match find t node with
  | Some n -> resolve_raw t ~file:n.path ~current:n.module_path raw
  | None -> []

(* breadth-first reachability over [refs] from labeled roots; each
   reached node remembers the lexicographically-first label, so
   messages derived from the result are deterministic *)
let reachable t roots =
  let out : (string, string) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  let visit label id =
    if Hashtbl.mem t.nodes id then
      match Hashtbl.find_opt out id with
      | Some prev when prev <= label -> ()
      | _ ->
          Hashtbl.replace out id label;
          Queue.add id queue
  in
  List.iter (fun (label, id) -> visit label id) (List.sort compare roots);
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some id ->
        let label = Hashtbl.find out id in
        List.iter (visit label) (refs t id);
        drain ()
  in
  drain ();
  out
