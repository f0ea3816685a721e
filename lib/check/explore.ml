module St = Spritely.State_table

module type TABLE = sig
  type t

  val create : ?max_entries:int -> unit -> t
  val copy : t -> t
  val open_file : t -> file:int -> client:int -> mode:St.mode -> St.open_result
  val close_file : t -> file:int -> client:int -> mode:St.mode -> unit
  val note_clean : t -> file:int -> client:int -> unit
  val remove_file : t -> file:int -> unit
  val forget_client : t -> int -> unit
  val state : t -> file:int -> St.state
  val version_of : t -> file:int -> Spritely.Version.t
  val can_cache : t -> file:int -> client:int -> bool
  val openers : t -> file:int -> (int * int * int) list
  val last_writer : t -> file:int -> int option
  val was_inconsistent : t -> file:int -> bool
  val files : t -> int list
  val entry_count : t -> int
  val max_entries : t -> int
  val to_reports : t -> St.client_report list
  val of_reports : ?max_entries:int -> St.client_report list -> t
  val merge_report : t -> St.client_report -> unit
  val equal : t -> t -> bool
end

type config = {
  clients : int;
  files : int;
  depth : int;
  max_states : int;
  max_violations : int;
  path_stride : int;
}

let default_config =
  {
    clients = 3;
    files = 2;
    depth = 8;
    max_states = 60_000;
    max_violations = 25;
    path_stride = 257;
  }

type violation = {
  v_inv : string;
  v_path : Invariant.op list;
  v_detail : string;
}

type stats = { distinct_states : int; transitions : int; deepest : int }

type result = {
  stats : stats;
  violations : violation list;
  paths : Invariant.op list list;
}

let state_code = function
  | St.Closed -> 0
  | St.Closed_dirty -> 1
  | St.One_reader -> 2
  | St.One_rdr_dirty -> 3
  | St.Mult_readers -> 4
  | St.One_writer -> 5
  | St.Write_shared -> 6

(* canonical fingerprint: the full observation with version numbers
   replaced by their rank among the live versions, so states that
   differ only in absolute version numbering coincide *)
let fingerprint (obs : Invariant.obs) =
  let versions =
    List.filter_map
      (fun (_, fo) ->
        if fo.Invariant.o_version > 0 then Some fo.Invariant.o_version else None)
      obs
    |> List.sort_uniq compare
  in
  let rank v =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = v then i else go (i + 1) rest
    in
    go 0 versions
  in
  let b = Buffer.create 64 in
  List.iter
    (fun (file, fo) ->
      Buffer.add_string b
        (Printf.sprintf "f%d:%d%d%d;" file
           (if fo.Invariant.o_present then 1 else 0)
           (state_code fo.Invariant.o_state)
           (rank fo.Invariant.o_version));
      List.iter
        (fun (c, r, w) -> Buffer.add_string b (Printf.sprintf "%d.%d.%d," c r w))
        fo.Invariant.o_openers;
      Buffer.add_char b ';';
      List.iter
        (fun cc -> Buffer.add_char b (if cc then 'y' else 'n'))
        fo.Invariant.o_can_cache;
      Buffer.add_string b
        (match fo.Invariant.o_last_writer with
        | None -> ";-"
        | Some c -> ";" ^ string_of_int c);
      Buffer.add_char b (if fo.Invariant.o_inconsistent then '!' else '.');
      Buffer.add_char b '|')
    obs;
  Buffer.contents b

(* every candidate op over the universe, in a fixed deterministic order *)
let candidates cfg =
  let ops = ref [] in
  let add op = ops := op :: !ops in
  for c = cfg.clients - 1 downto 0 do
    for f = cfg.files - 1 downto 0 do
      add (Invariant.Open (c, f, St.Read));
      add (Invariant.Open (c, f, St.Write));
      add (Invariant.Close (c, f, St.Read));
      add (Invariant.Close (c, f, St.Write));
      add (Invariant.Note_clean (c, f))
    done;
    add (Invariant.Forget c)
  done;
  for f = cfg.files - 1 downto 0 do
    add (Invariant.Remove f)
  done;
  !ops

module Make (T : TABLE) = struct
  let observe ~clients ~files t =
    let live = T.files t in
    List.init files (fun file ->
        ( file,
          {
            Invariant.o_present = List.mem file live;
            o_state = T.state t ~file;
            o_version = T.version_of t ~file;
            o_openers = T.openers t ~file;
            o_can_cache =
              List.init clients (fun client -> T.can_cache t ~file ~client);
            o_last_writer = T.last_writer t ~file;
            o_inconsistent = T.was_inconsistent t ~file;
          } ))

  let apply_table t op =
    match op with
    | Invariant.Open (c, f, m) -> Some (T.open_file t ~file:f ~client:c ~mode:m)
    | Invariant.Close (c, f, m) ->
        T.close_file t ~file:f ~client:c ~mode:m;
        None
    | Invariant.Note_clean (c, f) ->
        T.note_clean t ~file:f ~client:c;
        None
    | Invariant.Forget c ->
        T.forget_client t c;
        None
    | Invariant.Remove f ->
        T.remove_file t ~file:f;
        None

  (* compare the open reply against the model's expectation; both
     callback lists in merged-and-sorted canonical form *)
  let check_open_result ~expected ~(result : St.open_result option) =
    match (result, expected) with
    | None, None -> []
    | Some r, Some (x : Model.expected_open) ->
        let out = ref [] in
        if r.St.cache_enabled <> x.Model.x_cache_enabled then
          out :=
            ( "model-agreement",
              Printf.sprintf "open reply cache_enabled=%b, model says %b"
                r.St.cache_enabled x.Model.x_cache_enabled )
            :: !out;
        if r.St.version <> x.Model.x_version then
          out :=
            ( "model-agreement",
              Printf.sprintf "open reply version=%d, model says %d" r.St.version
                x.Model.x_version )
            :: !out;
        if r.St.prev_version <> x.Model.x_prev_version then
          out :=
            ( "model-agreement",
              Printf.sprintf "open reply prev=%d, model says %d"
                r.St.prev_version x.Model.x_prev_version )
            :: !out;
        let got = List.sort compare r.St.callbacks in
        if got <> x.Model.x_callbacks then
          out :=
            ( "callback-prescription",
              Printf.sprintf "callbacks [%s], model says [%s]"
                (String.concat ","
                   (List.map
                      (fun cb ->
                        Printf.sprintf "c%d%s%s" cb.St.target
                          (if cb.St.writeback then "+wb" else "")
                          (if cb.St.invalidate then "+inv" else ""))
                      got))
                (String.concat ","
                   (List.map
                      (fun cb ->
                        Printf.sprintf "c%d%s%s" cb.St.target
                          (if cb.St.writeback then "+wb" else "")
                          (if cb.St.invalidate then "+inv" else ""))
                      x.Model.x_callbacks)) )
            :: !out;
        !out
    | Some _, None -> [ ("open-result", "table produced a reply, model did not") ]
    | None, Some _ -> [ ("open-result", "model expected a reply, table gave none") ]

  (* crash-recovery invariants, checked once per distinct state.

     Entries that carry only the was_inconsistent flag (no openers, no
     last writer) cannot be reconstructed after a server reboot — no
     client has anything to report about them — so the round trip is
     checked on the reconstructible projection; when every live entry
     is reconstructible this degenerates to the literal
     [equal (of_reports (to_reports t)) t]. *)
  let check_recovery ~clients ~files t =
    let out = ref [] in
    let bad inv fmt = Printf.ksprintf (fun d -> out := (inv, d) :: !out) fmt in
    let reports = T.to_reports t in
    let rebuilt = T.of_reports ~max_entries:(T.max_entries t) reports in
    let reconstructible file =
      T.openers t ~file <> [] || T.last_writer t ~file <> None
    in
    let all_reconstructible = List.for_all reconstructible (T.files t) in
    if all_reconstructible && not (T.equal rebuilt t) then
      bad "recovery-roundtrip" "of_reports (to_reports t) differs from t";
    let obs_t = observe ~clients ~files t in
    let obs_r = observe ~clients ~files rebuilt in
    List.iter
      (fun (file, fo) ->
        let fo_r = List.assoc file obs_r in
        if reconstructible file then begin
          if
            ( fo.Invariant.o_present,
              fo.Invariant.o_state,
              fo.Invariant.o_version,
              fo.Invariant.o_openers,
              fo.Invariant.o_can_cache,
              fo.Invariant.o_last_writer )
            <> ( fo_r.Invariant.o_present,
                 fo_r.Invariant.o_state,
                 fo_r.Invariant.o_version,
                 fo_r.Invariant.o_openers,
                 fo_r.Invariant.o_can_cache,
                 fo_r.Invariant.o_last_writer )
          then bad "recovery-roundtrip" "f%d differs after rebuild" file
        end
        else if fo_r.Invariant.o_present then
          bad "recovery-roundtrip" "f%d reappeared from nothing" file)
      obs_t;
    (* trickle-in: merging the reports one at a time, in any order,
       builds the same table of_reports builds in one shot *)
    let trickled = T.create ~max_entries:(T.max_entries t) () in
    List.iter (fun r -> T.merge_report trickled r) (List.rev reports);
    if not (T.equal trickled rebuilt) then
      bad "recovery-trickle-in" "merge_report order changes the rebuilt table";
    List.rev !out

  type node = { table : T.t; model : Model.t; path : Invariant.op list }

  let run ?(config = default_config) () =
    let cfg = config in
    let seen = Hashtbl.create 4096 in
    let violations = ref [] in
    let nviol = ref 0 in
    let record inv path detail =
      if !nviol < cfg.max_violations then begin
        incr nviol;
        violations :=
          { v_inv = inv; v_path = List.rev path; v_detail = detail }
          :: !violations
      end
    in
    let paths = ref [] in
    let distinct = ref 1 in
    let transitions = ref 0 in
    let deepest = ref 0 in
    let table0 = T.create () in
    Hashtbl.replace seen (fingerprint (observe ~clients:cfg.clients ~files:cfg.files table0)) ();
    let frontier = ref [ { table = table0; model = Model.empty; path = [] } ] in
    let depth = ref 0 in
    let all_ops = candidates cfg in
    while !frontier <> [] && !depth < cfg.depth && !distinct < cfg.max_states do
      incr depth;
      let next = ref [] in
      List.iter
        (fun node ->
          if !distinct < cfg.max_states then begin
            let pre_obs =
              observe ~clients:cfg.clients ~files:cfg.files node.table
            in
            let ops = List.filter (Model.legal node.model) all_ops in
            List.iter
              (fun op ->
                if !distinct < cfg.max_states then begin
                  incr transitions;
                  let table = T.copy node.table in
                  let path = op :: node.path in
                  match apply_table table op with
                  | exception e ->
                      record "no-exception" path (Printexc.to_string e)
                  | result ->
                      let model, expected = Model.apply node.model op in
                      let post_obs =
                        observe ~clients:cfg.clients ~files:cfg.files table
                      in
                      let model_obs =
                        Model.observe model ~clients:cfg.clients
                          ~files:cfg.files
                      in
                      let report = List.iter (fun (i, d) -> record i path d) in
                      report
                        (Invariant.check_state
                           ~max_entries:(T.max_entries table)
                           ~entry_count:(T.entry_count table) post_obs);
                      report
                        (Invariant.check_transition ~pre:pre_obs ~op ~result
                           ~post:post_obs);
                      report
                        (Invariant.diff_obs ~expected:model_obs ~got:post_obs);
                      report (check_open_result ~expected ~result);
                      let fp = fingerprint post_obs in
                      if not (Hashtbl.mem seen fp) then begin
                        Hashtbl.replace seen fp ();
                        incr distinct;
                        deepest := !depth;
                        if !distinct mod cfg.path_stride = 0 then
                          paths := List.rev path :: !paths;
                        report
                          (check_recovery ~clients:cfg.clients ~files:cfg.files
                             table);
                        next := { table; model; path } :: !next
                      end
                end)
              ops
          end)
        !frontier;
      frontier := List.rev !next
    done;
    {
      stats =
        {
          distinct_states = !distinct;
          transitions = !transitions;
          deepest = !deepest;
        };
      violations = List.rev !violations;
      paths = List.rev !paths;
    }

  let replay ?(config = default_config) ops =
    let cfg = config in
    let in_universe = function
      | Invariant.Open (c, f, _) | Invariant.Close (c, f, _)
      | Invariant.Note_clean (c, f) ->
          c < cfg.clients && f < cfg.files
      | Invariant.Forget c -> c < cfg.clients
      | Invariant.Remove f -> f < cfg.files
    in
    let violations = ref [] in
    let table = ref (T.create ()) in
    let model = ref Model.empty in
    List.iter
      (fun op ->
        if in_universe op && Model.legal !model op then begin
          let pre_obs =
            observe ~clients:cfg.clients ~files:cfg.files !table
          in
          let path = [ op ] in
          match apply_table !table op with
          | exception e ->
              violations :=
                {
                  v_inv = "no-exception";
                  v_path = path;
                  v_detail = Printexc.to_string e;
                }
                :: !violations
          | result ->
              let model', expected = Model.apply !model op in
              model := model';
              let post_obs =
                observe ~clients:cfg.clients ~files:cfg.files !table
              in
              let model_obs =
                Model.observe !model ~clients:cfg.clients ~files:cfg.files
              in
              let report =
                List.iter (fun (i, d) ->
                    violations :=
                      { v_inv = i; v_path = path; v_detail = d } :: !violations)
              in
              report
                (Invariant.check_state
                   ~max_entries:(T.max_entries !table)
                   ~entry_count:(T.entry_count !table) post_obs);
              report
                (Invariant.check_transition ~pre:pre_obs ~op ~result
                   ~post:post_obs);
              report (Invariant.diff_obs ~expected:model_obs ~got:post_obs);
              report (check_open_result ~expected ~result);
              report
                (check_recovery ~clients:cfg.clients ~files:cfg.files !table)
        end)
      ops;
    List.rev !violations
end

module Table_checker = Make (Spritely.State_table)
