(* Bounded exhaustive + seeded-random checker for the client lifecycle
   state machine. The reference model is a pure association list; the
   implementation is checked for exact observable agreement after every
   operation, with the two lifecycle-specific invariants
   (expirable-only-on-conflict, courtesy-cannot-linger-past-lifetime)
   and the reclaim-idempotence discipline attributed by name so the
   negative suite can assert which one a seeded bug trips. *)

module type LIFE = sig
  type t

  val create : ?courtesy_lifetime:float -> unit -> t
  val state : t -> client:int -> Spritely.Lifecycle.state
  val demote : t -> client:int -> now:float -> bool
  val note_conflict : t -> client:int -> bool
  val revive : t -> client:int -> bool
  val due : t -> now:float -> (int * Spritely.Lifecycle.state) list
  val to_list : t -> (int * Spritely.Lifecycle.state * float) list
  val forget : t -> client:int -> unit
  val copy : t -> t
end

type op = Demote of int | Conflict of int | Revive of int | Tick | Scan

let op_to_string = function
  | Demote c -> Printf.sprintf "demote(%d)" c
  | Conflict c -> Printf.sprintf "conflict(%d)" c
  | Revive c -> Printf.sprintf "revive(%d)" c
  | Tick -> "tick"
  | Scan -> "scan"

(* courtesy lifetime used by the checker, in [Tick] steps *)
let lifetime_steps = 2

type violation = { v_inv : string; v_path : op list; v_detail : string }

(* ---- pure reference model ---- *)

(* Active clients are absent; [since] is the Tick step of demotion. *)
type mentry = { m_client : int; m_expirable : bool; m_since : int }
type model = mentry list

let m_state (m : model) c =
  match List.find_opt (fun e -> e.m_client = c) m with
  | None -> Spritely.Lifecycle.Active
  | Some e ->
      if e.m_expirable then Spritely.Lifecycle.Expirable
      else Spritely.Lifecycle.Courtesy

let m_demote m c ~step =
  if List.exists (fun e -> e.m_client = c) m then (m, false)
  else ({ m_client = c; m_expirable = false; m_since = step } :: m, true)

let m_conflict m c =
  match List.find_opt (fun e -> e.m_client = c) m with
  | Some e when not e.m_expirable ->
      ( { e with m_expirable = true }
        :: List.filter (fun e -> e.m_client <> c) m,
        true )
  | Some _ | None -> (m, false)

let m_revive m c =
  match List.find_opt (fun e -> e.m_client = c) m with
  | Some e when not e.m_expirable ->
      (List.filter (fun e -> e.m_client <> c) m, true)
  | Some _ | None -> (m, false)

let m_due (m : model) ~step =
  List.filter_map
    (fun e ->
      if e.m_expirable then Some (e.m_client, Spritely.Lifecycle.Expirable)
      else if step - e.m_since >= lifetime_steps then
        Some (e.m_client, Spritely.Lifecycle.Courtesy)
      else None)
    m
  |> List.sort compare

let m_forget m c = List.filter (fun e -> e.m_client <> c) m

let m_to_list (m : model) =
  List.map
    (fun e ->
      ( e.m_client,
        (if e.m_expirable then Spritely.Lifecycle.Expirable
         else Spritely.Lifecycle.Courtesy),
        float_of_int e.m_since ))
    m
  |> List.sort compare

(* ---- checker ---- *)

module Make (L : LIFE) = struct
  let show_state = Spritely.Lifecycle.state_to_string

  let show_due d =
    "["
    ^ String.concat "; "
        (List.map (fun (c, s) -> Printf.sprintf "%d:%s" c (show_state s)) d)
    ^ "]"

  (* Check observable agreement after an op; specific invariants are
     attributed before the generic model-agreement mismatch. *)
  let check_states ~clients path impl (m : model) =
    let rec go c =
      if c >= clients then None
      else
        let got = L.state impl ~client:c in
        let want = m_state m c in
        if got = want then go (c + 1)
        else if got = Spritely.Lifecycle.Expirable then
          Some
            {
              v_inv = "expirable-only-on-conflict";
              v_path = List.rev path;
              v_detail =
                Printf.sprintf
                  "client %d is Expirable but no conflict promoted it (model: \
                   %s)"
                  c (show_state want);
            }
        else
          Some
            {
              v_inv = "model-agreement";
              v_path = List.rev path;
              v_detail =
                Printf.sprintf "client %d: impl %s, model %s" c
                  (show_state got) (show_state want);
            }
    in
    match go 0 with
    | Some v -> Some v
    | None ->
        let got = L.to_list impl and want = m_to_list m in
        if got = want then None
        else
          Some
            {
              v_inv = "model-agreement";
              v_path = List.rev path;
              v_detail = "to_list disagrees with the model";
            }

  let check_return path op got want =
    if got = want then None
    else
      Some
        {
          v_inv = "model-agreement";
          v_path = List.rev path;
          v_detail =
            Printf.sprintf "%s returned %b, model says %b" (op_to_string op)
              got want;
        }

  (* One laundromat pass: read due twice (idempotence), check nothing
     Courtesy lingers past the lifetime, check exact agreement with the
     model's due set, reap it everywhere, and verify the reap took. *)
  let scan ~path impl m ~step =
    let now = float_of_int step in
    let due1 = L.due impl ~now in
    let due2 = L.due impl ~now in
    if due1 <> due2 then
      ( m,
        Some
          {
            v_inv = "reclaim-idempotence";
            v_path = List.rev path;
            v_detail =
              Printf.sprintf "two due reads disagree: %s then %s"
                (show_due due1) (show_due due2);
          } )
    else
      let lingering =
        List.filter_map
          (fun e ->
            if
              (not e.m_expirable)
              && step - e.m_since >= lifetime_steps
              && not (List.mem_assoc e.m_client due1)
            then Some e.m_client
            else None)
          m
      in
      match lingering with
      | c :: _ ->
          ( m,
            Some
              {
                v_inv = "courtesy-cannot-linger-past-lifetime";
                v_path = List.rev path;
                v_detail =
                  Printf.sprintf
                    "client %d has been Courtesy for >= %d steps but is not \
                     due (due = %s)"
                    c lifetime_steps (show_due due1);
              } )
      | [] ->
          let want = m_due m ~step in
          if due1 <> want then
            ( m,
              Some
                {
                  v_inv = "model-agreement";
                  v_path = List.rev path;
                  v_detail =
                    Printf.sprintf "due = %s, model says %s" (show_due due1)
                      (show_due want);
                } )
          else begin
            (* reap: forget everything due, twice (double-forget must be
               harmless), in both the implementation and the model *)
            List.iter
              (fun (c, _) ->
                L.forget impl ~client:c;
                L.forget impl ~client:c)
              due1;
            let m = List.fold_left (fun m (c, _) -> m_forget m c) m due1 in
            let after = L.due impl ~now in
            if after <> [] then
              ( m,
                Some
                  {
                    v_inv = "reclaim-idempotence";
                    v_path = List.rev path;
                    v_detail =
                      Printf.sprintf
                        "still due after reaping everything due: %s"
                        (show_due after);
                  } )
            else (m, None)
          end

  let apply ~clients ~path impl m step op =
    match op with
    | Demote c ->
        let got = L.demote impl ~client:c ~now:(float_of_int step) in
        let m, want = m_demote m c ~step in
        let v =
          match check_states ~clients path impl m with
          | Some v -> Some v
          | None -> check_return path op got want
        in
        (m, step, v)
    | Conflict c ->
        let got = L.note_conflict impl ~client:c in
        let m, want = m_conflict m c in
        let v =
          match check_states ~clients path impl m with
          | Some v -> Some v
          | None -> check_return path op got want
        in
        (m, step, v)
    | Revive c ->
        let got = L.revive impl ~client:c in
        let m, want = m_revive m c in
        let v =
          match check_states ~clients path impl m with
          | Some v -> Some v
          | None -> check_return path op got want
        in
        (m, step, v)
    | Tick -> (m, step + 1, None)
    | Scan ->
        let m, v = scan ~path impl m ~step in
        let v =
          match v with
          | Some _ -> v
          | None -> check_states ~clients path impl m
        in
        (m, step, v)

  let guarded ~clients ~path impl m step op =
    match apply ~clients ~path impl m step op with
    | r -> r
    | exception exn ->
        ( m,
          step,
          Some
            {
              v_inv = "exception";
              v_path = List.rev path;
              v_detail = Printexc.to_string exn;
            } )

  let fresh () = L.create ~courtesy_lifetime:(float_of_int lifetime_steps) ()

  let replay ?(clients = 2) ops =
    let impl = fresh () in
    let rec go impl m step path checked = function
      | [] -> (None, checked)
      | op :: rest -> (
          let path = op :: path in
          match guarded ~clients ~path impl m step op with
          | _, _, Some v -> (Some v, checked + 1)
          | m, step, None -> go impl m step path (checked + 1) rest)
    in
    fst (go impl [] 0 [] 0 ops)

  let alphabet clients =
    List.concat_map
      (fun c -> [ Demote c; Conflict c; Revive c ])
      (List.init clients Fun.id)
    @ [ Tick; Scan ]

  let run ?(clients = 2) ?(depth = 5) ?(random_runs = 200) ?(random_depth = 20)
      ?(seed = 0x5eedL) () =
    let ops = alphabet clients in
    let checked = ref 0 in
    let exception Found of violation in
    (* exhaustive DFS: copy the implementation and extend the path by
       each alphabet op; the model is pure so it branches for free *)
    let rec dfs impl m step path remaining =
      if remaining > 0 then
        List.iter
          (fun op ->
            let impl = L.copy impl in
            let path = op :: path in
            incr checked;
            match guarded ~clients ~path impl m step op with
            | _, _, Some v -> raise (Found v)
            | m, step, None -> dfs impl m step path (remaining - 1))
          ops
    in
    let random () =
      let rand = Sim.Rand.create seed in
      let arr = Array.of_list ops in
      for _ = 1 to random_runs do
        let seq =
          List.init random_depth (fun _ ->
              arr.(Sim.Rand.int rand (Array.length arr)))
        in
        incr checked;
        match replay ~clients seq with
        | Some v -> raise (Found v)
        | None -> ()
      done
    in
    match
      dfs (fresh ()) [] 0 [] depth;
      random ()
    with
    | () -> (None, !checked)
    | exception Found v -> (Some v, !checked)
end

module Lifecycle_checker = Make (Spritely.Lifecycle)
