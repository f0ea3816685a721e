open Parsetree

let name = "interface-drift"

type usage = {
  opened : (string, unit) Hashtbl.t;
      (** module names that are the target of an [open]/[include] *)
  used : (string * string, string list ref) Hashtbl.t;
      (** (module, value) -> source paths referencing it *)
}

let last = function [] -> None | l -> Some (List.nth l (List.length l - 1))

let record_use usage src_path = function
  | path when List.length path >= 2 ->
      let n = List.length path in
      let m = List.nth path (n - 2) and v = List.nth path (n - 1) in
      let key = (m, v) in
      let cell =
        match Hashtbl.find_opt usage.used key with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.replace usage.used key c;
            c
      in
      if not (List.mem src_path !cell) then cell := src_path :: !cell
  | _ -> ()

let module_expr_path me =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> Astutil.flatten txt
  | _ -> None

(* [module X = F (Y)] makes [X.v] a use of the functor result's [v]:
   the alias names the functor *)
let alias_path me =
  match me.pmod_desc with
  | Pmod_apply (f, _) -> module_expr_path f
  | _ -> module_expr_path me

let scan_file usage (file : Source.t) =
  let aliases : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let resolve = function
    | head :: rest -> (
        match Hashtbl.find_opt aliases head with
        | Some real -> real :: rest
        | None -> head :: rest)
    | [] -> []
  in
  let note_open path =
    match last path with
    | Some m -> Hashtbl.replace usage.opened m ()
    | None -> ()
  in
  let note_alias name path =
    match last path with
    | Some real -> Hashtbl.replace aliases name real
    | None -> ()
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match Astutil.flatten txt with
        | Some p -> record_use usage file.Source.path (resolve p)
        | None -> ())
    | Pexp_open (od, _) -> (
        match module_expr_path od.popen_expr with
        | Some p -> note_open (resolve p)
        | None -> ())
    | Pexp_letmodule ({ txt = Some n; _ }, me, _) -> (
        match alias_path me with
        | Some p -> note_alias n (resolve p)
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let structure_item it item =
    (match item.pstr_desc with
    | Pstr_open od -> (
        match module_expr_path od.popen_expr with
        | Some p -> note_open (resolve p)
        | None -> ())
    | Pstr_include incl -> (
        match module_expr_path incl.pincl_mod with
        | Some p -> note_open (resolve p)
        | None -> ())
    | Pstr_module { pmb_name = { txt = Some n; _ }; pmb_expr; _ } -> (
        match alias_path pmb_expr with
        | Some p -> note_alias n (resolve p)
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it item
  in
  let signature_item it item =
    (match item.psig_desc with
    | Psig_open od -> (
        match Astutil.flatten od.popen_expr.Location.txt with
        | Some p -> note_open (resolve p)
        | None -> ())
    | Psig_include incl -> (
        match incl.pincl_mod.pmty_desc with
        | Pmty_ident { txt; _ } -> (
            match Astutil.flatten txt with
            | Some p -> note_open (resolve p)
            | None -> ())
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.signature_item it item
  in
  (* a functor argument is used through the parameter's signature, so
     it counts as opened *)
  let module_expr it me =
    (match me.pmod_desc with
    | Pmod_apply (_, arg) -> (
        match module_expr_path arg with
        | Some p -> note_open (resolve p)
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.module_expr it me
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr;
      structure_item;
      signature_item;
      module_expr;
    }
  in
  Option.iter (it.structure it) file.Source.impl;
  Option.iter (it.signature it) file.Source.intf

let is_plain_ident name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | '_' -> true | _ -> false)

(* the vals of a signature, judged as members of module [m]; a nested
   [module X : sig ... end] (or a functor [X] whose result is one) is
   judged as module [X] *)
let rec judge usage ~path ~own ~display m signature =
  if Hashtbl.mem usage.opened m then []
  else
    List.concat_map
      (fun item ->
        match item.psig_desc with
        | Psig_value vd when is_plain_ident vd.pval_name.Location.txt ->
            let v = vd.pval_name.Location.txt in
            let externally_used =
              match Hashtbl.find_opt usage.used (m, v) with
              | None -> false
              | Some paths ->
                  List.exists
                    (fun s -> Filename.remove_extension s <> own)
                    !paths
            in
            if externally_used then []
            else
              let line, col = Astutil.pos vd.pval_loc in
              [
                Finding.v ~path ~line ~col ~rule:name
                  (Printf.sprintf
                     "val %s is never referenced outside %s; drop it from \
                      the interface or waive with a reason"
                     v display);
              ]
        | Psig_module { pmd_name = { txt = Some x; _ }; pmd_type; _ } -> (
            let rec result mt =
              match mt.pmty_desc with
              | Pmty_signature s -> Some s
              | Pmty_functor (_, r) -> result r
              | _ -> None
            in
            match result pmd_type with
            | Some s ->
                judge usage ~path ~own ~display:(display ^ "." ^ x) x s
            | None -> [])
        | _ -> [])
      signature

let check_mli usage (file : Source.t) =
  match file.Source.intf with
  | Some signature when Source.under "lib" file.Source.path ->
      let m = Source.module_name file.Source.path in
      judge usage ~path:file.Source.path
        ~own:(Filename.remove_extension file.Source.path)
        ~display:m m signature
  | _ -> []

let run ctx =
  let usage = { opened = Hashtbl.create 32; used = Hashtbl.create 256 } in
  List.iter
    (fun (f : Source.t) ->
      if not (Source.under "test" f.Source.path) then scan_file usage f)
    ctx.Pass.files;
  List.concat_map (check_mli usage) ctx.Pass.files

let pass =
  { Pass.name; doc = "exported values no external code references"; run }
