(* snfs_check — bounded breadth-first model checking of the Table 4-1
   state machine and of the client lifecycle. Prints one summary line
   per machine; on an invariant violation prints GNU-style findings
   anchored at the machine's source (with the op sequence that reaches
   the violation) and exits non-zero. *)

let check ~name ~anchor ~show machine =
  let t0 = Sys.time () in
  let r = Check.Explore.run machine in
  let s = r.Check.Explore.stats in
  Printf.printf "snfs_check: %s: %d distinct states, %d transitions, depth %d%s, %.2fs\n"
    name s.distinct_states s.transitions s.deepest
    (if s.exhausted then ", frontier exhausted" else "")
    (Sys.time () -. t0);
  List.iter
    (fun v ->
      Printf.printf "%s:1: error: [check/%s] %s (after: %s)\n" anchor
        v.Check.Explore.v_inv v.v_detail (show v.v_path))
    r.violations;
  List.length r.violations

let () =
  let module Table = Check.Table_machine.Make (Spritely.State_table) in
  let module Life = Check.Life_machine.Make (Spritely.Lifecycle) in
  let table =
    check ~name:"state table" ~anchor:"lib/core/state_table.ml"
      ~show:Check.Invariant.ops_to_string (Table.machine ())
  in
  let life =
    check ~name:"lifecycle" ~anchor:"lib/core/lifecycle.ml"
      ~show:Check.Life_machine.ops_to_string Life.machine
  in
  let n = table + life in
  if n > 0 then begin
    Printf.eprintf "snfs_check: %d invariant violation(s)\n" n;
    exit 1
  end
