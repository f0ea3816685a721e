module St = Spritely.State_table

module type TABLE = sig
  type t

  val create : unit -> t
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
  val to_reports : t -> St.client_report list
  val of_reports : St.client_report list -> t
  val merge_report : t -> St.client_report -> unit
  val equal : t -> t -> bool
end

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
let candidates ~clients ~files =
  let ops = ref [] in
  let add op = ops := op :: !ops in
  for c = clients - 1 downto 0 do
    for f = files - 1 downto 0 do
      add (Invariant.Open (c, f, St.Read));
      add (Invariant.Open (c, f, St.Write));
      add (Invariant.Close (c, f, St.Read));
      add (Invariant.Close (c, f, St.Write));
      add (Invariant.Note_clean (c, f))
    done;
    add (Invariant.Forget c)
  done;
  for f = files - 1 downto 0 do
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
    let rebuilt = T.of_reports reports in
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
    let trickled = T.create () in
    List.iter (fun r -> T.merge_report trickled r) (List.rev reports);
    if not (T.equal trickled rebuilt) then
      bad "recovery-trickle-in" "merge_report order changes the rebuilt table";
    List.rev !out

  type state = { table : T.t; model : Model.t; obs : Invariant.obs }

  let machine ?(clients = 3) ?(files = 2) () =
    let observe = observe ~clients ~files in
    let all_ops = candidates ~clients ~files in
    let table = T.create () in
    {
      Explore.initial = { table; model = Model.empty; obs = observe table };
      ops = (fun s -> List.filter (Model.legal s.model) all_ops);
      step =
        (fun s op ->
          let table = T.copy s.table in
          let result = apply_table table op in
          let model, expected = Model.apply s.model op in
          let obs = observe table in
          ( { table; model; obs },
            Invariant.check_state ~entry_count:(T.entry_count table) obs
            @ Invariant.check_transition ~pre:s.obs ~op ~result ~post:obs
            @ Invariant.diff_obs
                ~expected:(Model.observe model ~clients ~files)
                ~got:obs
            @ check_open_result ~expected ~result ));
      fingerprint = (fun s -> fingerprint s.obs);
      check_new = (fun s -> check_recovery ~clients ~files s.table);
    }
end
