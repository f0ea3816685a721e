open Parsetree

let name = "hot-alloc"

(* Allocation linter for the zero-allocation hot paths of DESIGN §11.
   A function is "hot" when its definition carries the hot marker
   comment, on its first line or one of the two above it; a marker
   above a file's first item makes the whole file hot. The marked
   bindings are the hot set test_alloc measures: the event-queue
   cycle, the int-keyed table under the block cache, the block cache's
   LRU primitives, the DRC request path, the XDR encoder's word and
   string writers, the client gnode lookup and the observability and
   causal-context fast paths. Inside a hot function every construct that makes
   ocamlopt allocate is flagged: constructor/tuple/record/array
   construction, anonymous closures, partial application of known
   same-file functions, Printf/Format, polymorphic compare/hash,
   list/string appends and the allocating Stdlib container operations,
   plus the mutable-float-in-mixed-record boxing trap (rule 2).

   Deliberate non-rules, so the pass matches what the compiler actually
   does rather than a superstition:
   - local [ref] cells are not flagged: ocamlopt unboxes refs that do
     not escape ([test_alloc] proves [Eventq.push] is zero-allocation
     despite its sift-hole refs);
   - named local functions ([let rec probe i = ...]) are not flagged:
     their full direct applications compile to jumps, unlike anonymous
     closures in argument position;
   - the argument of a raising head ([raise]/[failwith]/[invalid_arg]/
     a module-local [error]) is exempt — raise paths are cold by
     definition;
   - the then-branch of an [if Obs.Trace.on () / Obs.Metrics.on ()]
     guard is exempt: observability-off must cost one atomic load
     (rule 7), observability-on may allocate. *)

(* built as two halves so this very file never marks itself hot *)
let marker = "snfs-" ^ "hot"

let in_scope path = Source.under "lib" path

let raising_heads = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg";
                      "error" ]

let list_allocators =
  [
    "map"; "mapi"; "map2"; "append"; "concat"; "concat_map"; "filter";
    "filter_map"; "init"; "rev"; "rev_append"; "rev_map"; "sort";
    "sort_uniq"; "stable_sort"; "fast_sort"; "merge"; "split"; "combine";
    "of_seq"; "to_seq"; "cons";
  ]

let array_allocators =
  [
    "make"; "create_float"; "init"; "append"; "concat"; "copy"; "of_list";
    "to_list"; "sub"; "map"; "mapi"; "split"; "combine"; "of_seq"; "to_seq";
  ]

let bytes_allocators =
  [
    "create"; "make"; "init"; "copy"; "sub"; "sub_string"; "extend"; "cat";
    "concat"; "of_string"; "to_string";
  ]

let string_allocators =
  [
    "make"; "init"; "sub"; "concat"; "cat"; "split_on_char"; "of_bytes";
    "to_bytes"; "map"; "mapi"; "trim"; "escaped"; "uppercase_ascii";
    "lowercase_ascii";
  ]

(* reference to an identifier that allocates (or walks the heap) on
   every use, regardless of position *)
let banned_ref path =
  match Astutil.strip_stdlib path with
  | ("Printf" | "Format") :: _ :: _ ->
      Some
        (Printf.sprintf "%s allocates its format closure and output on \
                         every call" (String.concat "." path))
  | [ "Hashtbl"; "hash" ] ->
      Some "polymorphic Hashtbl.hash walks the value heap on every call"
  | "Hashtbl" :: _ :: _ ->
      Some
        "Hashtbl on a hot path: DESIGN §11 rule 6 wants a purpose-built \
         (open-addressing or direct-mapped) table here"
  | "Buffer" :: _ :: _ ->
      Some
        "Buffer on a hot path: use a pooled or pre-sized bytes buffer \
         (DESIGN §11)"
  | [ "compare" ] -> Some "polymorphic compare walks the heap and boxes"
  | [ ("@" | "^") ] ->
      Some "list/string append allocates the whole spine on every call"
  | [ "List"; f ] when List.mem f list_allocators ->
      Some (Printf.sprintf "List.%s allocates a fresh list" f)
  | [ "Array"; f ] when List.mem f array_allocators ->
      Some (Printf.sprintf "Array.%s allocates a fresh array" f)
  | [ "Bytes"; f ] when List.mem f bytes_allocators ->
      Some (Printf.sprintf "Bytes.%s allocates a fresh buffer" f)
  | [ "String"; f ] when List.mem f string_allocators ->
      Some (Printf.sprintf "String.%s allocates a fresh string" f)
  | _ -> None

(* syntactically structured operand: polymorphic =/<> on it walks the
   heap (scalar comparisons are left alone — the parser cannot see
   types, and int/float [=] is the hot paths' bread and butter). [None]
   and [[]] count too: the other operand is then an option or a list,
   so the comparison is a [caml_equal] C call where a match (or
   [Option.is_none]) is one test *)
let rec structured e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_construct ({ txt = Longident.Lident ("None" | "[]"); _ }, None) ->
      true
  | Pexp_variant (_, Some _) -> true
  | Pexp_constraint (inner, _) -> structured inner
  | _ -> false

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare" ]

(* does a guard condition consult an observability fast path? *)
let has_on_guard cond =
  let found = ref false in
  let expr it e =
    (match (Astutil.uncurry_pipes e).pexp_desc with
    | Pexp_apply (head, _) -> (
        match Astutil.path_of_expr head with
        | Some p -> (
            match List.rev p with "on" :: _ -> found := true | _ -> ())
        | None -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it cond;
  !found

let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_params body
  | Pexp_newtype (_, body) -> strip_params body
  | _ -> e

(* arity of an all-positional function body; [None] when any parameter
   is labelled/optional (partial application is then idiomatic) *)
let arity_of e =
  let rec go n e =
    match e.pexp_desc with
    | Pexp_fun (Asttypes.Nolabel, _, _, body) -> go (n + 1) body
    | Pexp_fun (_, _, _, _) -> None
    | Pexp_newtype (_, body) -> go n body
    | Pexp_function _ -> Some (n + 1)
    | _ -> if n = 0 then None else Some n
  in
  go 0 e

let check_body (file : Source.t) ~arities ~modname findings body =
  let report loc msg =
    let line, col = Astutil.pos loc in
    findings :=
      Finding.v ~path:file.Source.path ~line ~col ~rule:name msg :: !findings
  in
  let rec walk e =
    let e = Astutil.uncurry_pipes e in
    match e.pexp_desc with
    | Pexp_apply (head, args) -> (
        match Option.map Astutil.strip_stdlib (Astutil.path_of_expr head) with
        | Some [ f ] when List.mem f raising_heads ->
            () (* cold raise path: whatever the message costs is fine *)
        | Some p ->
            (match banned_ref p with
            | Some msg -> report head.pexp_loc msg
            | None -> ());
            (match p with
            | [ ("=" | "<>") ]
              when List.exists (fun (_, a) -> structured a) args ->
                report e.pexp_loc
                  "polymorphic =/<> on a structured value (or against None \
                   or []) is a caml_equal C call per comparison; match on \
                   the shape instead"
            | [ f ] -> (
                let arity =
                  match Hashtbl.find_opt arities (modname, f) with
                  | None ->
                      Hashtbl.find_opt arities
                        (Source.module_name file.Source.path, f)
                  | a -> a
                in
                match arity with
                | Some ar when List.length args < ar ->
                    report e.pexp_loc
                      (Printf.sprintf
                         "partial application of '%s' (%d of %d arguments) \
                          allocates a closure"
                         f (List.length args) ar)
                | _ -> ())
            | _ -> ());
            List.iter (fun (_, a) -> walk a) args
        | None ->
            walk head;
            List.iter (fun (_, a) -> walk a) args)
    | Pexp_ident { txt; _ } -> (
        match Option.map Astutil.strip_stdlib (Astutil.flatten txt) with
        | Some p -> (
            match banned_ref p with
            | Some msg -> report e.pexp_loc msg
            | None -> (
                match p with
                | [ f ] when List.mem f comparison_ops ->
                    report e.pexp_loc
                      (Printf.sprintf
                         "comparison '%s' passed as a value is the \
                          polymorphic version"
                         f)
                | _ -> ()))
        | None -> ())
    | Pexp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            match vb.pvb_expr.pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
                (* named local function: full direct applications
                   compile to jumps, no closure *)
                walk_fn_body vb.pvb_expr
            | _ -> walk vb.pvb_expr)
          vbs;
        walk body
    | Pexp_fun _ ->
        report e.pexp_loc "anonymous closure allocates at every evaluation";
        walk_fn_body e
    | Pexp_function cases ->
        report e.pexp_loc "anonymous closure allocates at every evaluation";
        walk_cases cases
    | Pexp_lazy inner ->
        report e.pexp_loc "lazy thunk allocates at every evaluation";
        walk inner
    | Pexp_construct (_, Some arg) ->
        report e.pexp_loc
          "constructor application (Some/::/variant payload) allocates a \
           block per call";
        walk arg
    | Pexp_variant (_, Some arg) ->
        report e.pexp_loc "polymorphic variant payload allocates per call";
        walk arg
    | Pexp_tuple es ->
        report e.pexp_loc "tuple construction allocates per call";
        List.iter walk es
    | Pexp_record (fields, base) ->
        report e.pexp_loc "record construction allocates per call";
        List.iter (fun (_, v) -> walk v) fields;
        Option.iter walk base
    | Pexp_array es ->
        report e.pexp_loc "array literal allocates per call";
        List.iter walk es
    | Pexp_ifthenelse (cond, _then, else_) when has_on_guard cond ->
        (* observability-on branch may allocate (DESIGN §11 rule 7:
           only the off path must be free) *)
        walk cond;
        Option.iter walk else_
    | _ -> descend e
  and walk_fn_body e =
    match strip_params e with
    | { pexp_desc = Pexp_function cases; _ } -> walk_cases cases
    | body -> walk body
  and walk_cases cases =
    List.iter
      (fun c ->
        Option.iter walk c.pc_guard;
        walk c.pc_rhs)
      cases
  and descend e =
    let it =
      { Ast_iterator.default_iterator with expr = (fun _ e -> walk e) }
    in
    Ast_iterator.default_iterator.expr it e
  in
  walk_fn_body body

(* mutable float field in a mixed record: every store boxes
   (DESIGN §11 rule 2 — use a one-cell float array instead) *)
let check_float_boxing (file : Source.t) structure findings =
  let is_float ct =
    match ct.ptyp_desc with
    | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
    | _ -> false
  in
  let type_declaration _it td =
    match td.ptype_kind with
    | Ptype_record labels when List.exists (fun l -> not (is_float l.pld_type)) labels ->
        List.iter
          (fun l ->
            if l.pld_mutable = Asttypes.Mutable && is_float l.pld_type then begin
              let line, col = Astutil.pos l.pld_loc in
              findings :=
                Finding.v ~path:file.Source.path ~line ~col ~rule:name
                  (Printf.sprintf
                     "mutable float field '%s' in a mixed record boxes on \
                      every store — use a one-cell float array (DESIGN §11 \
                      rule 2)"
                     l.pld_name.Asttypes.txt)
                :: !findings
            end)
          labels
    | _ -> ()
  in
  let it = { Ast_iterator.default_iterator with type_declaration } in
  it.structure it structure

let marker_lines src =
  let lines = String.split_on_char '\n' src in
  let tbl = Hashtbl.create 4 in
  List.iteri
    (fun i line ->
      if Astutil.contains line marker then Hashtbl.replace tbl (i + 1) ())
    lines;
  tbl

let run_file (file : Source.t) structure findings =
  let markers = marker_lines file.Source.src in
  let first_item_line =
    match structure with
    | item :: _ -> fst (Astutil.pos item.pstr_loc)
    | [] -> max_int
  in
  let whole_file =
    Hashtbl.fold (fun l () acc -> acc || l < first_item_line) markers false
  in
  let file_module = Source.module_name file.Source.path in
  (* first sweep: arities of every toplevel binding, per module *)
  let arities = Hashtbl.create 64 in
  let hot = ref [] in
  let rec collect modname items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_module
            { pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Pmod_structure inner; _ };
              _
            } ->
            collect sub inner
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match Astutil.pat_names vb.pvb_pat with
                | [ x ] ->
                    (match arity_of vb.pvb_expr with
                    | Some ar -> Hashtbl.replace arities (modname, x) ar
                    | None -> ());
                    let start = fst (Astutil.pos vb.pvb_loc) in
                    let marked =
                      Hashtbl.mem markers start
                      || Hashtbl.mem markers (start - 1)
                      || Hashtbl.mem markers (start - 2)
                    in
                    if whole_file || marked then hot := (modname, vb) :: !hot
                | _ -> ())
              vbs
        | _ -> ())
      items
  in
  collect file_module structure;
  if !hot <> [] then begin
    List.iter
      (fun (modname, vb) ->
        check_body file ~arities ~modname findings vb.pvb_expr)
      (List.rev !hot);
    check_float_boxing file structure findings
  end

let run ctx =
  let findings = ref [] in
  List.iter
    (fun (f : Source.t) ->
      match f.Source.impl with
      | Some structure when in_scope f.Source.path ->
          run_file f structure findings
      | _ -> ())
    ctx.Pass.files;
  !findings

let pass =
  {
    Pass.name;
    doc =
      "allocation-introducing constructs inside the declared \
       zero-allocation hot paths";
    run;
  }
