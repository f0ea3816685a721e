open Parsetree

(* The whole-program substrate under the interprocedural passes: one
   node per toplevel value binding anywhere in the workspace (nested
   modules and functor bodies included), with every identifier
   reference resolved to node ids through the module-path machinery —
   [module X = M] aliases, [open M] scopes, library-wrapper prefixes
   (a reference [Netsim.Rpc.call] reaches the tree module [Rpc] by
   dropping unknown leading wrapper components), and functor
   application over-approximated by resolving parameter-qualified
   references against *every* argument module the functor is applied
   to anywhere in the tree.

   References are recorded twice: [refs] (everything the body
   mentions) and [sync_refs] (everything outside a lambda handed to a
   deferring primitive such as [Engine.spawn] — code that runs in a
   later task and therefore neither blocks the binding nor runs under
   its caller). Effect inference and reachability passes pick the set
   that matches their question. *)

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
  sc_opens : string list list; (* raw paths of every [open] in the file *)
  sc_aliases : (string * string list) list; (* module X = <raw path> *)
}

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
  defer : string list list;
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

type raw_ref = { rr_path : string list; rr_sync : bool }

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

let scan_file defer (file : Source.t) structure =
  let root = Source.module_name file.Source.path in
  let opens = ref [] in
  let aliases = ref [] in
  let modules = ref [ [ root ] ] in
  let fparams = ref [] in
  let fapps = ref [] in
  let raw_nodes = ref [] in
  (* every ident path in [e], flagged sync/deferred; plus sync heads *)
  let collect_refs e =
    let refs = ref [] and heads = ref [] in
    let rec expr ~sync it e =
      let e = Astutil.uncurry_pipes e in
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match Astutil.flatten txt with
          | Some p -> refs := { rr_path = p; rr_sync = sync } :: !refs
          | None -> ())
      | Pexp_apply (head, args) ->
          (match Astutil.path_of_expr head with
          | Some p ->
              if sync then heads := p :: !heads;
              refs := { rr_path = p; rr_sync = sync } :: !refs;
              if List.exists (Astutil.has_suffix p) defer then
                List.iter
                  (fun (_, a) ->
                    if Astutil.is_lambda a then expr ~sync:false it a
                    else expr ~sync it a)
                  args
              else List.iter (fun (_, a) -> expr ~sync it a) args
          | None ->
              expr ~sync it head;
              List.iter (fun (_, a) -> expr ~sync it a) args)
      | _ ->
          let sub _it child = expr ~sync it child in
          let it' = { it with Ast_iterator.expr = sub } in
          Ast_iterator.default_iterator.expr it' e
    in
    let it = Ast_iterator.default_iterator in
    expr ~sync:true it e;
    (!refs, List.rev !heads)
  in
  let add_binding mpath name vb =
    let line, col = Astutil.pos vb.pvb_pat.ppat_loc in
    let refs, heads = collect_refs vb.pvb_expr in
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
      :: !raw_nodes
  in
  let record_functor_app mpath me =
    (* [F (A) (B)]: remember A and B as argument candidates for F's
       parameters, by F's resolved-later raw path *)
    let rec peel acc m =
      match m.pmod_desc with
      | Pmod_apply (f, arg) -> (
          match arg.pmod_desc with
          | Pmod_ident { txt; _ } -> (
              match Astutil.flatten txt with
              | Some p -> peel (p :: acc) f
              | None -> peel acc f)
          | _ -> peel acc f)
      | Pmod_ident { txt; _ } -> (
          match Astutil.flatten txt with
          | Some f_path -> Some (f_path, acc)
          | None -> None)
      | _ -> None
    in
    match peel [] me with
    | Some (f_path, args) when args <> [] ->
        ignore mpath;
        fapps := (f_path, args) :: !fapps
    | _ -> ()
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
    | Pmod_apply _ -> record_functor_app mpath me
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
            let sub_path = mpath @ [ sub ] in
            match pmb_expr.pmod_desc with
            | Pmod_ident { txt; _ } -> (
                match Astutil.flatten txt with
                | Some target -> aliases := (sub, target) :: !aliases
                | None -> ())
            | Pmod_apply _ ->
                (* module A = F (B): calls through A resolve into F *)
                (match
                   let rec head m =
                     match m.pmod_desc with
                     | Pmod_apply (f, _) -> head f
                     | Pmod_ident { txt; _ } -> Astutil.flatten txt
                     | _ -> None
                   in
                   head pmb_expr
                 with
                | Some f_path -> aliases := (sub, f_path) :: !aliases
                | None -> ());
                record_functor_app sub_path pmb_expr
            | _ ->
                modules := sub_path :: !modules;
                walk_module sub_path pmb_expr ~params:[])
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match Astutil.pat_names vb.pvb_pat with
                | [ x ] -> add_binding mpath x vb
                | _ -> ())
              vbs
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

(* expand a leading alias component through the file scope *)
let expand_aliases scope p =
  match p with
  | head :: rest -> (
      match List.assoc_opt head scope.sc_aliases with
      | Some target -> target @ rest
      | None -> p)
  | [] -> p

(* candidate module paths a raw module prefix may denote, given the
   current module and the file scope *)
let module_candidates t scope current prefix =
  let known m = Hashtbl.mem t.modules (join m) in
  let out = ref [] in
  let add m = if known m && not (List.mem m !out) then out := m :: !out in
  (* relative to the current module and each of its ancestors *)
  let rec ancestors acc m =
    match m with [] -> acc | _ :: _ -> ancestors (m :: acc) (List.rev (List.tl (List.rev m)))
  in
  List.iter (fun anc -> add (anc @ prefix)) (List.rev (ancestors [] current));
  (* absolute *)
  add prefix;
  (* through each [open] *)
  List.iter
    (fun o ->
      let o = expand_aliases scope o in
      add (o @ prefix);
      (* an opened library wrapper: [open Netsim] + [Rpc.call] *)
      match prefix with _ :: _ -> add prefix | [] -> ())
    scope.sc_opens;
  (* library-wrapper over-approximation: drop unknown leading
     components until a defined module matches *)
  let rec drop p =
    match p with
    | [] -> ()
    | _ :: rest ->
        add p;
        drop rest
  in
  drop prefix;
  List.rev !out

(* resolve one raw reference path to node ids *)
let resolve_raw t ~file ~current raw =
  let scope =
    match Hashtbl.find_opt t.scopes file with
    | Some s -> s
    | None -> { sc_opens = []; sc_aliases = [] }
  in
  let raw = expand_aliases scope raw in
  (* substitute functor parameters: inside functor [F (X : S)], a
     reference [X.f] is over-approximated by [A.f] for every [A] that
     [F] is applied to anywhere in the tree *)
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
        let prefix = List.rev rev_prefix in
        let mods =
          if prefix = [] then
            (* bare ident: the current module, its ancestors, and each
               opened module (with wrapper components dropped) *)
            let rec ancestors acc m =
              match m with
              | [] -> acc
              | _ :: _ ->
                  ancestors (m :: acc) (List.rev (List.tl (List.rev m)))
            in
            ancestors [] current
            @ List.concat_map
                (fun o ->
                  let o = expand_aliases scope o in
                  let rec drop p =
                    match p with [] -> [] | _ :: rest -> p :: drop rest
                  in
                  drop o)
                scope.sc_opens
          else module_candidates t scope current prefix
        in
        List.filter_map
          (fun m ->
            let id = join (m @ [ name ]) in
            if Hashtbl.mem t.nodes id then Some id else None)
          mods
  in
  List.concat_map resolve_one raws |> List.sort_uniq compare

(* ---- construction ---- *)

let build ?(defer = default_defer) (files : Source.t list) =
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
      defer;
    }
  in
  let all_raw = ref [] in
  List.iter
    (fun (f : Source.t) ->
      match f.Source.impl with
      | Some structure ->
          let scope, modules, fparams, fapps, raws =
            scan_file defer f structure
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
     functor's node-table identity (resolved as a module path) *)
  List.iter
    (fun (file, scope, fapps, _) ->
      List.iter
        (fun (f_raw, args) ->
          let f_raw = expand_aliases scope f_raw in
          let rec drop p =
            match p with
            | [] -> None
            | _ when Hashtbl.mem t.modules (join p) -> Some p
            | _ :: rest -> drop rest
          in
          ignore file;
          match drop f_raw with
          | Some fp ->
              let key = join fp in
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt t.functor_args key)
              in
              Hashtbl.replace t.functor_args key (args @ prev)
          | None -> ())
        fapps)
    !all_raw;
  (* resolve every node's references *)
  List.iter
    (fun (file, _, _, raws) ->
      List.iter
        (fun rn ->
          let id = join (rn.rn_module @ [ rn.rn_name ]) in
          let resolve rr = resolve_raw t ~file ~current:rn.rn_module rr in
          let all =
            List.concat_map (fun r -> resolve r.rr_path) rn.rn_refs
            |> List.sort_uniq compare
          in
          let sync =
            List.concat_map
              (fun r -> if r.rr_sync then resolve r.rr_path else [])
              rn.rn_refs
            |> List.sort_uniq compare
          in
          Hashtbl.replace t.refs_tbl id all;
          Hashtbl.replace t.sync_refs_tbl id sync;
          Hashtbl.replace t.sync_heads_tbl id rn.rn_heads)
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
let reachable ?(sync_only = false) t roots =
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
  let next = if sync_only then sync_refs else refs in
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some id ->
        let label = Hashtbl.find out id in
        List.iter (visit label) (next t id);
        drain ()
  in
  drain ();
  out
