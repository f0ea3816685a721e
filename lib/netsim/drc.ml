(* Direct-mapped by xid like the bounded "recent request cache" of real
   NFS servers. xids come from the transport's single monotonic
   counter, so a slot collision at the bound only evicts an entry
   [slots] xids older — far outside any retransmission window — and the
   cache is an array instead of a hash table that grows (and rehashes)
   with every call ever made.

   The array starts with no slots and is indexed by [xid land (size -
   1)]. It doubles only on a false collision: a new xid landing on a
   slot held by an xid with a different residue mod [slots], which the
   table at its bound would have kept beside it. Entries in distinct
   slots at one size stay distinct at twice the size, and two distinct
   residues mod [slots] separate by [slots] at the latest, so a table
   of any size holds exactly the entries a table of [slots] slots
   would, each at its own slot. A true collision (same residue) evicts
   in place, as at the bound. An idle service therefore holds no slots,
   and a busy one reaches the bound and stays there. *)
let slots = 4096

type decision = Execute | Drop | Replay

(* [xids.(i) = -1] marks a free slot; [finished.(i)] says whether the
   live xid's call has finished. Both hold immediates, so no store here
   is a major-heap store of a young value: what a finished call
   answered stays in the call record every copy of its request
   carries ([Rpc]). *)
type t = {
  mutable xids : int array;
  mutable finished : bool array;
  mutable used : int;
}

let create () = { xids = [||]; finished = [||]; used = 0 }
let length t = t.used

let reset t =
  t.xids <- [||];
  t.finished <- [||];
  t.used <- 0

let grow t =
  let old_xids = t.xids and old_finished = t.finished in
  let n = Array.length old_xids in
  let size = Int.max 1 (2 * n) in
  let xids = Array.make size (-1) and finished = Array.make size false in
  (* at most [slots] entries, moved once per doubling *)
  for i = 0 to n - 1 do
    let x = old_xids.(i) in
    if x <> -1 then begin
      let j = x land (size - 1) in
      xids.(j) <- x;
      finished.(j) <- old_finished.(i)
    end
  done;
  t.xids <- xids;
  t.finished <- finished

(* At the bound two xids share a slot only if they share a residue, so
   the doubling stops there at the latest. *)
(* snfs-hot *)
let rec admit t xid =
  let size = Array.length t.xids in
  if size = 0 then begin
    grow t;
    admit t xid
  end
  else
    let i = xid land (size - 1) in
    let held = t.xids.(i) in
    if held = -1 || held land (slots - 1) = xid land (slots - 1) then begin
      if held = -1 then t.used <- t.used + 1;
      t.xids.(i) <- xid;
      t.finished.(i) <- false
    end
    else begin
      grow t;
      admit t xid
    end

(* snfs-hot *)
let arrive t xid =
  let size = Array.length t.xids in
  let i = xid land (size - 1) in
  if size > 0 && t.xids.(i) = xid then
    if t.finished.(i) then Replay else Drop
  else begin
    admit t xid;
    Execute
  end

(* the slot is derived from the size now: the table may have grown
   while the handler ran *)
(* snfs-hot *)
let publish t xid =
  let size = Array.length t.xids in
  let i = xid land (size - 1) in
  if size > 0 && t.xids.(i) = xid then t.finished.(i) <- true
