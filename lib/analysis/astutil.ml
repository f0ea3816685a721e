open Parsetree

let flatten lid = match Longident.flatten lid with
  | parts -> Some parts
  | exception _ -> None

let path_of_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> flatten txt
  | _ -> None

let has_suffix path suff =
  let lp = List.length path and ls = List.length suff in
  lp >= ls
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  drop (lp - ls) path = suff

let table_walks =
  [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ]; [ "Inttbl"; "fold" ] ]

(* [Hashtbl.Make (H)] or [Hashtbl.MakeSeeded (H)], maybe constrained *)
let rec is_table_functor me =
  match me.pmod_desc with
  | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) -> (
      match flatten txt with
      | Some p ->
          has_suffix p [ "Hashtbl"; "Make" ]
          || has_suffix p [ "Hashtbl"; "MakeSeeded" ]
      | None -> false)
  | Pmod_constraint (me, _) -> is_table_functor me
  | _ -> false

let table_walks_in files =
  let walks = ref table_walks in
  let note name me =
    match name with
    | Some m when is_table_functor me ->
        walks := [ m; "iter" ] :: [ m; "fold" ] :: !walks
    | _ -> ()
  in
  let module_binding it mb =
    note mb.pmb_name.txt mb.pmb_expr;
    Ast_iterator.default_iterator.module_binding it mb
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_letmodule ({ txt; _ }, me, _) -> note txt me
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with module_binding; expr } in
  List.iter
    (fun (f : Source.t) -> Option.iter (it.structure it) f.Source.impl)
    files;
  !walks

(* [Stdlib.print_endline] and friends must not dodge the bare-ident
   entries *)
let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path

let is_lambda e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn > 0 && go 0

let pos (loc : Location.t) =
  let p = loc.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let rec uncurry_pipes e =
  match e.pexp_desc with
  | Pexp_apply (({ pexp_desc = Pexp_ident { txt = Lident ("|>" | "@@"); _ }; _ } as op),
                [ (Nolabel, a); (Nolabel, b) ]) ->
      let fn, arg =
        match op.pexp_desc with
        | Pexp_ident { txt = Lident "|>"; _ } -> (b, a)
        | _ -> (a, b)
      in
      let fn = uncurry_pipes fn in
      (* merge [x |> f y] into [f y x] so the head and all args are
         visible in one application node *)
      let desc =
        match fn.pexp_desc with
        | Pexp_apply (head, args) -> Pexp_apply (head, args @ [ (Nolabel, arg) ])
        | _ -> Pexp_apply (fn, [ (Nolabel, arg) ])
      in
      { e with pexp_desc = desc }
  | _ -> e

let rec pat_names p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pat_names p
  | Ppat_tuple ps -> List.concat_map pat_names ps
  | Ppat_construct (_, Some (_, p)) -> pat_names p
  | Ppat_variant (_, Some p) -> pat_names p
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pat_names p) fields
  | Ppat_array ps -> List.concat_map pat_names ps
  | Ppat_or (a, b) -> pat_names a @ pat_names b
  | Ppat_constraint (p, _) -> pat_names p
  | Ppat_lazy p | Ppat_exception p | Ppat_open (_, p) -> pat_names p
  | _ -> []

let iter_exprs f structure =
  let expr it e =
    f e;
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure

(* the constructors of mutable containers, by the module that names
   them in a finding *)
let mutable_ctors =
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

type toplevel_state = Atomic_cell | Dls_key | Mutable of string | Inert

let rec unwrap e =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> unwrap inner
  | _ -> e

let toplevel_state records e =
  let e = unwrap (uncurry_pipes e) in
  match e.pexp_desc with
  | Pexp_apply (head, _) -> (
      match path_of_expr head with
      | Some p when has_suffix p [ "Atomic"; "make" ] -> Atomic_cell
      | Some p when has_suffix p [ "Domain"; "DLS"; "new_key" ] -> Dls_key
      | Some [ "ref" ] -> Mutable "ref cell"
      | Some p -> (
          match
            List.find_opt (fun (suff, _) -> has_suffix p suff) mutable_ctors
          with
          | Some (_, what) -> Mutable (what ^ " container")
          | None -> Inert)
      | None -> Inert)
  | Pexp_record (fields, base) ->
      let labels =
        List.filter_map (fun (lid, _) -> flatten lid.Asttypes.txt) fields
      in
      if Records.literal_mutable records labels ~closed:(base = None) then
        Mutable "mutable record literal"
      else Inert
  | Pexp_array _ -> Mutable "array literal"
  | _ -> Inert
