(* Model-based property testing of the local file system: random
   namespace and data operations are run against both the simulated
   Localfs and a trivial pure model; their observable behaviour
   (results, errors, final tree) must coincide. *)

open Harness

(* ---- the pure model ---- *)

module Model = struct
  type node = MFile of (int * int) list (* (stamp, len) per block *) | MDir

  (* the tree: path -> node, "" is the root directory *)
  type t = (string, node) Hashtbl.t [@@warning "-34"]

  let create () =
    let t = Hashtbl.create 32 in
    Hashtbl.replace t "" MDir;
    t

  let parent path =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path 0 i
    | None -> ""

  let exists t p = Hashtbl.mem t p

  let is_dir t p = Hashtbl.find_opt t p = Some MDir

  (* the error a component-by-component walk to [p] would hit, if any:
     Noent for a missing component, Notdir for a lookup inside a file *)
  let rec resolve_err t p =
    if p = "" then None
    else
      match resolve_err t (parent p) with
      | Some e -> Some e
      | None ->
          if parent p <> "" && not (is_dir t (parent p)) then
            Some Localfs.Notdir
          else if not (exists t p) then Some Localfs.Noent
          else None

  (* can we reach [p]'s parent directory? *)
  let parent_access t p =
    match resolve_err t (parent p) with
    | Some e -> Error e
    | None ->
        if parent p <> "" && not (is_dir t (parent p)) then
          Error Localfs.Notdir
        else Ok ()

  let children t p =
    let prefix = if p = "" then "" else p ^ "/" in
    Hashtbl.fold
      (fun path _ acc ->
        if
          path <> "" && path <> p
          && String.starts_with ~prefix path
          && not (String.contains_from path (String.length prefix) '/')
        then String.sub path (String.length prefix)
               (String.length path - String.length prefix)
             :: acc
        else acc)
      t []
    |> List.sort String.compare

  let create_file t p =
    match parent_access t p with
    | Error e -> Error e
    | Ok () ->
        if exists t p then Error Localfs.Exist
        else begin
          Hashtbl.replace t p (MFile []);
          Ok ()
        end

  let mkdir t p =
    match parent_access t p with
    | Error e -> Error e
    | Ok () ->
        if exists t p then Error Localfs.Exist
        else begin
          Hashtbl.replace t p MDir;
          Ok ()
        end

  let write t p ~stamp ~blocks =
    match resolve_err t p with
    | Some e -> Error e
    | None -> (
        match Hashtbl.find_opt t p with
        | Some (MFile _) ->
            Hashtbl.replace t p
              (MFile (List.init blocks (fun _ -> (stamp, 4096))));
            Ok ()
        | Some MDir -> Error Localfs.Isdir
        | None -> Error Localfs.Noent)

  let read t p =
    match resolve_err t p with
    | Some e -> Error e
    | None -> (
        match Hashtbl.find_opt t p with
        | Some (MFile blocks) -> Ok blocks
        | Some MDir -> Error Localfs.Isdir
        | None -> Error Localfs.Noent)

  let remove t p =
    match parent_access t p with
    | Error e -> Error e
    | Ok () -> (
        match Hashtbl.find_opt t p with
        | Some (MFile _) ->
            Hashtbl.remove t p;
            Ok ()
        | Some MDir -> Error Localfs.Isdir
        | None -> Error Localfs.Noent)

  let rmdir t p =
    match parent_access t p with
    | Error e -> Error e
    | Ok () -> (
        match Hashtbl.find_opt t p with
        | Some MDir ->
            if children t p <> [] then Error Localfs.Notempty
            else begin
              Hashtbl.remove t p;
              Ok ()
            end
        | Some (MFile _) -> Error Localfs.Notdir
        | None -> Error Localfs.Noent)
end

(* ---- op generation: a small fixed namespace keeps collisions (and
   therefore error paths) frequent ---- *)

type op =
  | Create of string
  | Mkdir of string
  | Write of string * int
  | Read of string
  | Remove of string
  | Rmdir of string
  | Readdir of string

let names = [ "a"; "b"; "d1"; "d1/x"; "d1/y"; "d2"; "d2/z" ]

let dirs_only = [ ""; "d1"; "d2" ]

let op_gen =
  QCheck.Gen.(
    let name = oneofl names in
    frequency
      [
        (3, map (fun p -> Create p) name);
        (2, map (fun p -> Mkdir p) name);
        (4, map2 (fun p b -> Write (p, 1 + b)) name (int_bound 3));
        (4, map (fun p -> Read p) name);
        (2, map (fun p -> Remove p) name);
        (1, map (fun p -> Rmdir p) name);
        (1, map (fun p -> Readdir p) (oneofl dirs_only));
      ])

let print_op = function
  | Create p -> "create " ^ p
  | Mkdir p -> "mkdir " ^ p
  | Write (p, b) -> Printf.sprintf "write %s (%d)" p b
  | Read p -> "read " ^ p
  | Remove p -> "remove " ^ p
  | Rmdir p -> "rmdir " ^ p
  | Readdir p -> "readdir " ^ p

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 5 60) op_gen)

(* ---- execution against the real localfs ---- *)

(* resolve a model path to an ino, component by component *)
let resolve fs path =
  let rec walk dir = function
    | [] -> dir
    | c :: rest -> walk (Localfs.lookup fs ~dir c) rest
  in
  walk (Localfs.root fs)
    (if path = "" then [] else String.split_on_char '/' path)

let run_ops ops =
  run_sim (fun e ->
      let disk = Diskm.Disk.create e "d" in
      let fs = Localfs.create e ~name:"fs" ~disk ~cache_blocks:256 () in
      let model = Model.create () in
      let stamp = ref 100 in
      let ok = ref true in
      let expect_same label (real : ('a, Localfs.error) result)
          (modeled : ('a, Localfs.error) result) =
        if real <> modeled then begin
          ok := false;
          ignore label
        end
      in
      let attempt f =
        match f () with
        | v -> Ok v
        | exception Localfs.Error err -> Error err
      in
      List.iter
        (fun op ->
          match op with
          | Create p ->
              let real =
                attempt (fun () ->
                    ignore
                      (Localfs.create_file fs
                         ~dir:(resolve fs (Model.parent p))
                         (Filename.basename p)))
              in
              expect_same "create" real (Model.create_file model p)
          | Mkdir p ->
              let real =
                attempt (fun () ->
                    ignore
                      (Localfs.mkdir fs
                         ~dir:(resolve fs (Model.parent p))
                         (Filename.basename p)))
              in
              expect_same "mkdir" real (Model.mkdir model p)
          | Write (p, blocks) ->
              incr stamp;
              let s = !stamp in
              let real =
                attempt (fun () ->
                    let ino = resolve fs p in
                    (* overwrite from scratch, like creat+write *)
                    Localfs.setattr fs ino ~size:0 ();
                    for i = 0 to blocks - 1 do
                      Localfs.write_block fs ino ~index:i ~stamp:s ~len:4096
                        `Delayed
                    done)
              in
              expect_same "write" real (Model.write model p ~stamp:s ~blocks)
          | Read p -> (
              let real =
                attempt (fun () ->
                    let ino = resolve fs p in
                    let attrs = Localfs.getattr fs ino in
                    if attrs.Localfs.ftype = Localfs.Dir then
                      raise (Localfs.Error Localfs.Isdir);
                    let nblocks = (attrs.Localfs.size + 4095) / 4096 in
                    List.init nblocks (fun i ->
                        Localfs.read_block fs ino ~index:i))
              in
              match (real, Model.read model p) with
              | Ok blocks, Ok expected ->
                  if List.map fst blocks <> List.map fst expected then
                    ok := false
              | Error a, Error b -> if a <> b then ok := false
              | Ok _, Error _ | Error _, Ok _ -> ok := false)
          | Remove p ->
              let real =
                attempt (fun () ->
                    Localfs.remove fs
                      ~dir:(resolve fs (Model.parent p))
                      (Filename.basename p))
              in
              expect_same "remove" real (Model.remove model p)
          | Rmdir p ->
              let real =
                attempt (fun () ->
                    Localfs.rmdir fs
                      ~dir:(resolve fs (Model.parent p))
                      (Filename.basename p))
              in
              expect_same "rmdir" real (Model.rmdir model p)
          | Readdir p -> (
              let real =
                attempt (fun () -> Localfs.readdir fs ~dir:(resolve fs p))
              in
              let reachable =
                Model.resolve_err model p = None && Model.is_dir model p
              in
              match real with
              | Ok listing ->
                  if (not reachable) || listing <> Model.children model p then
                    ok := false
              | Error _ -> if reachable then ok := false))
        ops;
      (* final sweep: the real tree matches the model exactly *)
      let rec sweep path =
        if Model.is_dir model path then begin
          let real_children =
            try Localfs.readdir fs ~dir:(resolve fs path)
            with Localfs.Error _ ->
              ok := false;
              []
          in
          if real_children <> Model.children model path then ok := false;
          List.iter
            (fun c -> sweep (if path = "" then c else path ^ "/" ^ c))
            (Model.children model path)
        end
      in
      sweep "";
      !ok)

let prop_model =
  QCheck.Test.make ~name:"localfs matches the pure model" ~count:150
    ops_arbitrary run_ops

let () =
  Alcotest.run "localfs_model"
    [ ("model", [ QCheck_alcotest.to_alcotest prop_model ]) ]
