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

(* toplevel mutable state, as domain-safety classifies it: scan binding
   bodies without descending into function bodies or lazy thunks (those
   allocate per call, which is fine) *)
let rec scan_toplevel file records findings e =
  let scan = scan_toplevel file records findings in
  let e = Astutil.uncurry_pipes e in
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> scan inner
  | _ -> (
      (match Astutil.toplevel_state records e with
      | Astutil.Mutable what ->
          let line, col = Astutil.pos e.pexp_loc in
          findings :=
            Finding.v ~path:file.Source.path ~line ~col ~rule:name
              (Printf.sprintf
                 "toplevel mutable state (%s): core model state must be \
                  explicit function arguments"
                 what)
            :: !findings
      | Astutil.Atomic_cell | Astutil.Dls_key | Astutil.Inert -> ());
      match e.pexp_desc with
      | Pexp_apply (head, args) ->
          scan head;
          List.iter (fun (_, a) -> scan a) args
      | Pexp_let (_, vbs, body) ->
          List.iter (fun vb -> scan vb.pvb_expr) vbs;
          scan body
      | Pexp_tuple es | Pexp_array es -> List.iter scan es
      | Pexp_record (fields, base) ->
          List.iter (fun (_, v) -> scan v) fields;
          Option.iter scan base
      | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) -> scan arg
      | Pexp_sequence (_, inner) -> scan inner
      | _ -> ())

let check_file records (file : Source.t) =
  match file.Source.impl with
  | Some structure when in_scope file.Source.path ->
      let findings = ref [] in
      check_refs file structure findings;
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb -> scan_toplevel file records findings vb.pvb_expr)
                vbs
          | _ -> ())
        structure;
      !findings
  | _ -> []

let pass =
  {
    Pass.name;
    doc = "I/O, simulator coupling and hidden state in the core model";
    run =
      (fun ctx ->
        List.concat_map (check_file ctx.Pass.records) ctx.Pass.files);
  }
