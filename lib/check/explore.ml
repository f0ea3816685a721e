type finding = string * string

type ('state, 'op) machine = {
  initial : 'state;
  ops : 'state -> 'op list;
  step : 'state -> 'op -> 'state * finding list;
  fingerprint : 'state -> string;
  check_new : 'state -> finding list;
}

type 'op violation = { v_inv : string; v_path : 'op list; v_detail : string }

type stats = {
  distinct_states : int;
  transitions : int;
  deepest : int;
  exhausted : bool;
}

type 'op result = {
  stats : stats;
  violations : 'op violation list;
}

let max_violations = 25

let run ?(depth = 8) ?(max_states = 60_000) m =
  let seen = Hashtbl.create 4096 in
  let violations = ref [] and nviol = ref 0 in
  let report path =
    List.iter (fun (inv, detail) ->
        if !nviol < max_violations then begin
          incr nviol;
          violations :=
            { v_inv = inv; v_path = List.rev path; v_detail = detail }
            :: !violations
        end)
  in
  let distinct = ref 0 and transitions = ref 0 in
  let level = ref 0 and deepest = ref 0 in
  (* a state not seen before: count it, check it and queue it for the
     next level *)
  let discover queue state path =
    let fp = m.fingerprint state in
    if not (Hashtbl.mem seen fp) then begin
      Hashtbl.replace seen fp ();
      incr distinct;
      deepest := !level;
      report path (m.check_new state);
      queue := (state, path) :: !queue
    end
  in
  let frontier = ref [] in
  discover frontier m.initial [];
  while !frontier <> [] && !level < depth && !distinct < max_states do
    incr level;
    let next = ref [] in
    List.iter
      (fun (state, path) ->
        if !distinct < max_states then
          List.iter
            (fun op ->
              if !distinct < max_states then begin
                incr transitions;
                let path = op :: path in
                match m.step state op with
                | exception e ->
                    report path [ ("no-exception", Printexc.to_string e) ]
                | state, found ->
                    report path found;
                    discover next state path
              end)
            (m.ops state))
      !frontier;
    frontier := List.rev !next
  done;
  {
    stats =
      {
        distinct_states = !distinct;
        transitions = !transitions;
        deepest = !deepest;
        exhausted = !frontier = [];
      };
    violations = List.rev !violations;
  }
