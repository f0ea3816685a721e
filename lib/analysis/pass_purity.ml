open Parsetree

let name = "purity"

let in_scope path =
  Source.under "lib/core" path || Source.under "lib/check" path

let banned_modules =
  [ "Unix"; "Sys"; "Sim"; "Netsim"; "Obs"; "Random"; "In_channel";
    "Out_channel" ]

let banned_bare =
  [
    "print_endline"; "print_string"; "print_newline"; "print_char";
    "print_int"; "print_float"; "prerr_endline"; "prerr_string";
    "output_string"; "open_in"; "open_out"; "read_line"; "input_line";
  ]

let printing_fns = [ "printf"; "eprintf"; "fprintf"; "kfprintf" ]

let mutable_ctor_suffixes =
  [
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Bytes"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
  ]

let check_refs file structure findings =
  Astutil.iter_exprs
    (fun e ->
      match Astutil.path_of_expr e with
      | None -> ()
      | Some path ->
          let path = Astutil.strip_stdlib path in
          let bad =
            match path with
            | m :: _ :: _ when List.mem m banned_modules ->
                Some
                  (Printf.sprintf
                     "references %s: the core model must not touch I/O, \
                      clocks, the simulator or entropy"
                     (String.concat "." path))
            | [ ("Printf" | "Format") ; f ] when List.mem f printing_fns ->
                Some
                  (Printf.sprintf "%s prints from the core model"
                     (String.concat "." path))
            | [ f ] when List.mem f banned_bare ->
                Some (Printf.sprintf "%s performs I/O from the core model" f)
            | _ -> None
          in
          match bad with
          | None -> ()
          | Some msg ->
              let line, col = Astutil.pos e.pexp_loc in
              findings :=
                Finding.v ~path:file.Source.path ~line ~col ~rule:name msg
                :: !findings)
    structure

(* toplevel mutable state: scan binding bodies without descending into
   function bodies or lazy thunks (those allocate per call, which is
   fine) *)
let rec scan_toplevel file findings e =
  let e = Astutil.uncurry_pipes e in
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
  | Pexp_apply (head, args) ->
      (match Astutil.path_of_expr head with
      | Some [ "ref" ] ->
          let line, col = Astutil.pos e.pexp_loc in
          findings :=
            Finding.v ~path:file.Source.path ~line ~col ~rule:name
              "toplevel ref cell: core model state must be explicit \
               function arguments"
            :: !findings
      | Some p when List.exists (Astutil.has_suffix p) mutable_ctor_suffixes
        ->
          let line, col = Astutil.pos e.pexp_loc in
          findings :=
            Finding.v ~path:file.Source.path ~line ~col ~rule:name
              (Printf.sprintf
                 "toplevel mutable container (%s): core model state must \
                  be explicit function arguments"
                 (String.concat "." p))
            :: !findings
      | _ -> ());
      scan_toplevel file findings head;
      List.iter (fun (_, a) -> scan_toplevel file findings a) args
  | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> scan_toplevel file findings vb.pvb_expr) vbs;
      scan_toplevel file findings body
  | Pexp_tuple es -> List.iter (scan_toplevel file findings) es
  | Pexp_record (fields, base) ->
      List.iter (fun (_, v) -> scan_toplevel file findings v) fields;
      Option.iter (scan_toplevel file findings) base
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
      scan_toplevel file findings arg
  | Pexp_constraint (inner, _) | Pexp_open (_, inner)
  | Pexp_sequence (_, inner) ->
      scan_toplevel file findings inner
  | Pexp_array es -> List.iter (scan_toplevel file findings) es
  | _ -> ()

let check_file (file : Source.t) =
  match file.Source.impl with
  | Some structure when in_scope file.Source.path ->
      let findings = ref [] in
      check_refs file structure findings;
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb -> scan_toplevel file findings vb.pvb_expr)
                vbs
          | _ -> ())
        structure;
      !findings
  | _ -> []

let pass =
  {
    Pass.name;
    doc = "I/O, simulator coupling and hidden state in the core model";
    run = (fun ctx -> List.concat_map check_file ctx.Pass.files);
  }
