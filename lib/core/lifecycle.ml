(* Per-client lifecycle bookkeeping for the server's crash detector
   (paper Section 2.4, refined along the lines of the Linux NFSD
   courtesy-client state machine). Pure: every operation takes the
   current time explicitly, so the module knows nothing about clocks
   or the simulation engine and the model checker can drive it
   directly. Active clients are not stored — absence of an entry is
   the Active state — so the table only ever holds the (rare)
   clients currently under suspicion. *)

type state = Active | Courtesy | Expirable

let state_to_string = function
  | Active -> "active"
  | Courtesy -> "courtesy"
  | Expirable -> "expirable"

type entry = {
  mutable e_expirable : bool; (* promoted by a conflict, never by time *)
  e_since : float; (* when the client was demoted out of Active *)
}

type t = { entries : (int, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 8 }

let state t ~client =
  match Hashtbl.find_opt t.entries client with
  | None -> Active
  | Some e -> if e.e_expirable then Expirable else Courtesy

let nonactive t = Hashtbl.length t.entries

let demote t ~client ~now =
  match Hashtbl.find_opt t.entries client with
  | Some _ -> false
  | None ->
      Hashtbl.replace t.entries client { e_expirable = false; e_since = now };
      true

let note_conflict t ~client =
  match Hashtbl.find_opt t.entries client with
  | Some e when not e.e_expirable ->
      e.e_expirable <- true;
      true
  | Some _ | None -> false

let revive t ~client =
  match Hashtbl.find_opt t.entries client with
  | Some e when not e.e_expirable ->
      Hashtbl.remove t.entries client;
      true
  | Some _ | None -> false

(* Both listings fold the hash table and sort by client id, so their
   order never depends on hashing. *)
let to_list t =
  Hashtbl.fold
    (fun client e acc ->
      ((client, (if e.e_expirable then Expirable else Courtesy), e.e_since)
       :: acc))
    t.entries []
  |> List.sort compare

let due t ~now ~courtesy_lifetime =
  if courtesy_lifetime < 0.0 then
    invalid_arg "Lifecycle.due: courtesy_lifetime must be >= 0";
  Hashtbl.fold
    (fun client e acc ->
      if e.e_expirable then (client, Expirable) :: acc
      else if now -. e.e_since >= courtesy_lifetime then
        (client, Courtesy) :: acc
      else acc)
    t.entries []
  |> List.sort compare

let forget t ~client = Hashtbl.remove t.entries client

let counts t =
  (* snfs-fanout: bounded — non-blocking metrics fold on the poll timer *)
  Hashtbl.fold
    (fun _ e (courtesy, expirable) ->
      if e.e_expirable then (courtesy, expirable + 1)
      else (courtesy + 1, expirable))
    t.entries (0, 0)

let reset t = Hashtbl.reset t.entries

(* entries are mutable records, so a Hashtbl.copy would share them and
   a conflict in the copy would promote the original's client too *)
let copy t =
  let entries = Hashtbl.create (max 8 (Hashtbl.length t.entries)) in
  Hashtbl.iter (fun client e -> Hashtbl.replace entries client { e with e_expirable = e.e_expirable }) t.entries;
  { entries }
