(* Counters are stored as int ref cells so that hot callers can look a
   name up once ([cell]) and bump the ref directly, instead of paying a
   string hash + find + replace on every increment. *)
type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 32

let cell t name =
  match Hashtbl.find_opt t name with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.replace t name c;
      c

let incr t ?(n = 1) name =
  let c = cell t name in
  c := !c + n

let get t name = match Hashtbl.find_opt t name with Some c -> !c | None -> 0

let total t = Hashtbl.fold (fun _ c acc -> acc + !c) t 0

let total_of t names = List.fold_left (fun acc n -> acc + get t n) 0 names

let to_list t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* fresh refs, not Hashtbl.copy: a shared ref would let post-snapshot
   increments leak into the snapshot *)
let snapshot t =
  let out = create () in
  Hashtbl.iter (fun k c -> Hashtbl.replace out k (ref !c)) t;
  out

(* A [later] behind [earlier] (snapshots passed in the wrong order)
   would otherwise surface as a negative delta and silently poison
   interval arithmetic. *)
let diff later earlier =
  let out = create () in
  Hashtbl.iter
    (fun name c ->
      let d = !c - get earlier name in
      if d > 0 then Hashtbl.replace out name (ref d))
    later;
  out
