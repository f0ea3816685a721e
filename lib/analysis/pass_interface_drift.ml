open Parsetree

let name = "interface-drift"

let is_plain_ident name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | '_' -> true | _ -> false)

(* node id -> the source files (extension dropped) of the program
   nodes, those outside test/, that reference it *)
let program_users cg =
  let users : (string, string list) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (n : Callgraph.node) ->
      if not (Source.under "test" n.Callgraph.path) then
        let file = Filename.remove_extension n.Callgraph.path in
        List.iter
          (fun id ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt users id) in
            if not (List.mem file prev) then
              Hashtbl.replace users id (file :: prev))
          (Callgraph.refs cg n.Callgraph.id))
    (Callgraph.nodes cg);
  users

(* the vals of a signature, judged as members of module path [m]; a
   nested [module X : sig ... end] (or a functor [X] whose result is
   one) is judged as [m.X] *)
let rec judge users ~path ~own m signature =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd when is_plain_ident vd.pval_name.Location.txt ->
          let v = vd.pval_name.Location.txt in
          let used =
            List.exists (( <> ) own)
              (Option.value ~default:[]
                 (Hashtbl.find_opt users (String.concat "." (m @ [ v ]))))
          in
          if used then []
          else
            let line, col = Astutil.pos vd.pval_loc in
            [
              Finding.v ~path ~line ~col ~rule:name
                (Printf.sprintf
                   "val %s is never referenced outside %s; drop it from the \
                    interface or waive with a reason"
                   v (String.concat "." m));
            ]
      | Psig_module { pmd_name = { txt = Some x; _ }; pmd_type; _ } -> (
          let rec result mt =
            match mt.pmty_desc with
            | Pmty_signature s -> Some s
            | Pmty_functor (_, r) -> result r
            | _ -> None
          in
          match result pmd_type with
          | Some s -> judge users ~path ~own (m @ [ x ]) s
          | None -> [])
      | _ -> [])
    signature

let run ctx =
  let users = program_users ctx.Pass.cg in
  List.concat_map
    (fun (file : Source.t) ->
      match file.Source.intf with
      | Some signature when Source.under "lib" file.Source.path ->
          judge users ~path:file.Source.path
            ~own:(Filename.remove_extension file.Source.path)
            [ Source.module_name file.Source.path ]
            signature
      | _ -> [])
    ctx.Pass.files

let pass =
  { Pass.name; doc = "exported values no external code references"; run }
