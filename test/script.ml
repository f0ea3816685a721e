(* A one-path (scripted) machine: [machine m ops] follows [ops] through
   [m], skipping any op [m] does not offer in the state it has reached,
   so exploring it replays the sequence with every check [m] makes,
   the once-per-state check included. The qcheck properties replay
   their random sequences this way. *)

module E = Check.Explore

let machine (m : ('s, 'op) E.machine) ops =
  let rec next s = function
    | [] -> None
    | op :: rest ->
        if List.mem op (m.E.ops s) then Some (op, rest) else next s rest
  in
  {
    E.initial = (m.E.initial, ops);
    ops = (fun (s, rest) -> Option.to_list (Option.map fst (next s rest)));
    step =
      (fun (s, rest) op ->
        let rest = Option.fold ~none:[] ~some:snd (next s rest) in
        let s, found = m.E.step s op in
        ((s, rest), found));
    (* the script shrinks at every step, so each state is new *)
    fingerprint = (fun (_, rest) -> string_of_int (List.length rest));
    check_new = (fun (s, _) -> m.E.check_new s);
  }

(* the violations of one scripted run *)
let replay m ops = (E.run ~depth:max_int (machine m ops)).E.violations
