(* The client lifecycle state machine. The reference model is a pure
   association list; the implementation is checked for exact
   observable agreement after every operation, with the two
   lifecycle-specific invariants (expirable-only-on-conflict,
   courtesy-cannot-linger-past-lifetime) and the reclaim-idempotence
   discipline attributed by name so the negative suite can assert
   which one a seeded bug trips. *)

module type LIFE = sig
  type t

  val create : unit -> t
  val state : t -> client:int -> Spritely.Lifecycle.state
  val demote : t -> client:int -> now:float -> bool
  val note_conflict : t -> client:int -> bool
  val revive : t -> client:int -> bool
  val due :
    t -> now:float -> courtesy_lifetime:float ->
    (int * Spritely.Lifecycle.state) list
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

let ops_to_string ops = String.concat "; " (List.map op_to_string ops)

let clients = 3

(* courtesy lifetime, in [Tick] steps *)
let lifetime_steps = 2
let courtesy_lifetime = float_of_int lifetime_steps

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

let m_demote m c ~now =
  if List.exists (fun e -> e.m_client = c) m then (m, false)
  else ({ m_client = c; m_expirable = false; m_since = now } :: m, true)

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

let lingers e ~now = (not e.m_expirable) && now - e.m_since >= lifetime_steps

let m_due (m : model) ~now =
  List.filter_map
    (fun e ->
      if e.m_expirable then Some (e.m_client, Spritely.Lifecycle.Expirable)
      else if lingers e ~now then Some (e.m_client, Spritely.Lifecycle.Courtesy)
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

(* each client's state, a Courtesy client's age clipped at the
   lifetime *)
let fingerprint (m : model) ~now =
  String.init clients (fun c ->
      match List.find_opt (fun e -> e.m_client = c) m with
      | None -> 'a'
      | Some e when e.m_expirable -> 'e'
      | Some e -> Char.chr (Char.code '0' + min lifetime_steps (now - e.m_since)))

(* ---- the machine ---- *)

let found inv fmt = Printf.ksprintf (fun d -> [ (inv, d) ]) fmt
let show_state = Spritely.Lifecycle.state_to_string

let show_due d =
  "["
  ^ String.concat "; "
      (List.map (fun (c, s) -> Printf.sprintf "%d:%s" c (show_state s)) d)
  ^ "]"

module Make (L : LIFE) = struct
  type state = { impl : L.t; model : model; now : int }

  (* observable agreement after an op; a client wrongly Expirable is
     attributed before the generic model-agreement mismatch *)
  let check_states impl m =
    List.concat_map
      (fun c ->
        let got = L.state impl ~client:c and want = m_state m c in
        if got = want then []
        else if got = Spritely.Lifecycle.Expirable then
          found "expirable-only-on-conflict"
            "client %d is Expirable but no conflict promoted it (model: %s)"
            c (show_state want)
        else
          found "model-agreement" "client %d: impl %s, model %s" c
            (show_state got) (show_state want))
      (List.init clients Fun.id)
    @
    if L.to_list impl = m_to_list m then []
    else found "model-agreement" "to_list disagrees with the model"

  (* One laundromat pass: read due twice (idempotence), check nothing
     Courtesy lingers past the lifetime, check exact agreement with the
     model's due set, reap it twice over (double-forget must be
     harmless), and verify the reap took. *)
  let scan impl m ~now =
    let at = float_of_int now in
    let due1 = L.due impl ~now:at ~courtesy_lifetime in
    let due2 = L.due impl ~now:at ~courtesy_lifetime in
    let lingering =
      List.filter
        (fun e -> lingers e ~now && not (List.mem_assoc e.m_client due1))
        m
    in
    if due1 <> due2 then
      ( m,
        found "reclaim-idempotence" "two due reads disagree: %s then %s"
          (show_due due1) (show_due due2) )
    else
      match (lingering, m_due m ~now) with
      | e :: _, _ ->
          ( m,
            found "courtesy-cannot-linger-past-lifetime"
              "client %d has been Courtesy for >= %d steps but is not due \
               (due = %s)"
              e.m_client lifetime_steps (show_due due1) )
      | [], want when due1 <> want ->
          ( m,
            found "model-agreement" "due = %s, model says %s" (show_due due1)
              (show_due want) )
      | [], _ -> (
          List.iter
            (fun (c, _) ->
              L.forget impl ~client:c;
              L.forget impl ~client:c)
            due1;
          let m = List.fold_left (fun m (c, _) -> m_forget m c) m due1 in
          match L.due impl ~now:at ~courtesy_lifetime with
          | [] -> (m, check_states impl m)
          | after ->
              ( m,
                found "reclaim-idempotence"
                  "still due after reaping everything due: %s"
                  (show_due after) ))

  let step s op =
    let impl = L.copy s.impl in
    let answer op got (model, want) =
      ( { s with impl; model },
        check_states impl model
        @
        if got = want then []
        else
          found "model-agreement" "%s returned %b, model says %b"
            (op_to_string op) got want )
    in
    match op with
    | Demote c ->
        answer op
          (L.demote impl ~client:c ~now:(float_of_int s.now))
          (m_demote s.model c ~now:s.now)
    | Conflict c ->
        answer op (L.note_conflict impl ~client:c) (m_conflict s.model c)
    | Revive c -> answer op (L.revive impl ~client:c) (m_revive s.model c)
    | Tick -> ({ s with now = s.now + 1 }, [])
    | Scan ->
        let model, found = scan impl s.model ~now:s.now in
        ({ s with impl; model }, found)

  let alphabet =
    List.concat_map
      (fun c -> [ Demote c; Conflict c; Revive c ])
      (List.init clients Fun.id)
    @ [ Tick; Scan ]

  let machine =
    {
      Explore.initial =
        {
          impl = L.create ();
          model = [];
          now = 0;
        };
      ops = (fun _ -> alphabet);
      step;
      fingerprint = (fun s -> fingerprint s.model ~now:s.now);
      check_new = (fun _ -> []);
    }
end
