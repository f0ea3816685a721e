open Parsetree

type decl = {
  modpath : string list;  (* e.g. ["Rpc"], or ["Stats"; "Timeseries"] *)
  fields : (string * bool) list;  (* label, declared mutable *)
}

(* every declaration under each of its labels; a type in both an .ml
   and its .mli is seen twice, which no judgement here minds *)
type t = (string, decl) Hashtbl.t

let collect (files : Source.t list) =
  let t = Hashtbl.create 128 in
  let path = ref [] in
  let type_declaration it td =
    (match td.ptype_kind with
    | Ptype_record lds ->
        let d =
          {
            modpath = List.rev !path;
            fields =
              List.map
                (fun ld ->
                  (ld.pld_name.Asttypes.txt, ld.pld_mutable = Asttypes.Mutable))
                lds;
          }
        in
        List.iter (fun (l, _) -> Hashtbl.add t l d) d.fields
    | _ -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let within name f =
    match name with
    | Some m ->
        path := m :: !path;
        f ();
        path := List.tl !path
    | None -> f ()
  in
  let module_binding it mb =
    within mb.pmb_name.Asttypes.txt (fun () ->
        Ast_iterator.default_iterator.module_binding it mb)
  in
  let module_declaration it md =
    within md.pmd_name.Asttypes.txt (fun () ->
        Ast_iterator.default_iterator.module_declaration it md)
  in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration;
      module_binding;
      module_declaration;
    }
  in
  List.iter
    (fun (f : Source.t) ->
      path := [ Source.module_name f.Source.path ];
      Option.iter (it.structure it) f.Source.impl;
      Option.iter (it.signature it) f.Source.intf)
    files;
  t

let last path = List.nth path (List.length path - 1)

(* The declarations a label path can name: [M.l] those of a module
   named [M] (the innermost name, so a library prefix does not matter),
   falling back to every declaration of [l] when no module of that name
   declares it (an alias, or a type from outside the tree). *)
let candidates t path =
  let l = last path in
  let all = Hashtbl.find_all t l in
  match List.rev path with
  | _ :: m :: _ -> (
      let last_module d =
        match List.rev d.modpath with m' :: _ -> m' = m | [] -> false
      in
      match List.filter last_module all with [] -> all | ds -> ds)
  | _ -> all

let label_mutable t path =
  let l = last path in
  List.exists (fun d -> List.assoc l d.fields) (candidates t path)

let literal_mutable t labels ~closed =
  match labels with
  | [] -> false
  | first :: _ ->
      let names = List.map last labels in
      let fits d =
        List.for_all (fun n -> List.mem_assoc n d.fields) names
        && ((not closed) || List.length d.fields = List.length names)
      in
      let named_by =
        match List.find_opt (fun p -> List.length p > 1) labels with
        | Some qualified -> qualified
        | None -> first
      in
      (match List.filter fits (candidates t named_by) with
      | [] ->
          (* no declaration in the tree has this label set: judge the
             labels one by one *)
          List.exists (label_mutable t) labels
      | ds -> List.exists (fun d -> List.exists snd d.fields) ds)
