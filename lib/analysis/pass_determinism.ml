let name = "determinism"

(* forbidden outside bin/ *)
let nondeterministic =
  [
    ([ "Unix"; "gettimeofday" ], "wall-clock time; use Sim.Engine.now");
    ([ "Unix"; "time" ], "wall-clock time; use Sim.Engine.now");
    ([ "Unix"; "localtime" ], "wall-clock time; use Sim.Engine.now");
    ([ "Unix"; "gmtime" ], "wall-clock time; use Sim.Engine.now");
    ([ "Sys"; "time" ], "host CPU time; use Sim.Engine.now");
    ([ "Random"; "self_init" ], "ambient entropy; use Sim.Rand with a fixed seed");
  ]

(* additionally forbidden in lib/: a library configured through the
   environment is irreproducible, and printing is the CLI's job *)
let lib_only =
  [
    ([ "Sys"; "getenv" ], "environment read; thread configuration explicitly");
    ([ "Sys"; "getenv_opt" ], "environment read; thread configuration explicitly");
    ([ "Unix"; "getenv" ], "environment read; thread configuration explicitly");
    ([ "Unix"; "environment" ], "environment read; thread configuration explicitly");
    ([ "Printf"; "printf" ], "ad-hoc stdout printing in library code");
    ([ "Printf"; "eprintf" ], "ad-hoc stderr printing in library code");
    ([ "Format"; "printf" ], "ad-hoc stdout printing in library code");
    ([ "Format"; "eprintf" ], "ad-hoc stderr printing in library code");
    ([ "print_endline" ], "ad-hoc stdout printing in library code");
    ([ "print_string" ], "ad-hoc stdout printing in library code");
    ([ "print_newline" ], "ad-hoc stdout printing in library code");
    ([ "prerr_endline" ], "ad-hoc stderr printing in library code");
    ([ "prerr_string" ], "ad-hoc stderr printing in library code");
  ]

(* [Stdlib.print_endline] and friends must not dodge the bare-ident
   entries *)
let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path

let check_file (file : Source.t) =
  match file.Source.impl with
  | None -> []
  | Some structure ->
      let in_bin = Source.under "bin" file.Source.path in
      let in_lib = Source.under "lib" file.Source.path in
      if in_bin then []
      else begin
        let findings = ref [] in
        let active =
          if in_lib then nondeterministic @ lib_only else nondeterministic
        in
        Astutil.iter_exprs
          (fun e ->
            match Astutil.path_of_expr e with
            | None -> ()
            | Some path -> (
                let path = strip_stdlib path in
                match List.assoc_opt path active with
                | None -> ()
                | Some why ->
                    let line, col = Astutil.pos e.Parsetree.pexp_loc in
                    findings :=
                      Finding.v ~path:file.Source.path ~line ~col ~rule:name
                        (Printf.sprintf
                           "%s breaks reproducibility outside bin/ (%s)"
                           (String.concat "." path) why)
                      :: !findings))
          structure;
        !findings
      end

let pass =
  {
    Pass.name;
    doc = "wall-clock, entropy, environment and ad-hoc printing references";
    run = (fun ctx -> List.concat_map check_file ctx.Pass.files);
  }
