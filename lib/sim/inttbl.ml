(* [vals.(i) == empty] marks a free slot, whose key is meaningless.
   [live] counts the bound slots; the load factor stays at or below
   1/2. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable live : int;
  empty : 'a;
}

let create ~empty = { keys = [||]; vals = [||]; live = 0; empty }

let empty t = t.empty

(* A full-width multiply folded with its high bits, so every bit of the
   key reaches the slot bits: mixing only the low bits put block i of
   neighbouring files (keys file lsl 21 lor i) in adjacent slots. *)
(* snfs-hot *)
let index mask k =
  let h = k * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land mask

(* The slot holding [k], or the free slot that ends its probe run. The
   probe loops are [while] loops over non-escaping refs: a local
   [let rec] capturing the arrays would allocate a closure per call. *)
(* snfs-hot *)
let slot t k =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  let i = ref (index mask k) in
  while Array.unsafe_get vals !i != t.empty && Array.unsafe_get keys !i <> k do
    i := (!i + 1) land mask
  done;
  !i

(* an empty table may have no slots at all *)
(* snfs-hot *)
let find t k =
  if t.live = 0 then t.empty else Array.unsafe_get t.vals (slot t k)

let rec grow t =
  let keys = t.keys and vals = t.vals in
  let cap = Int.max 8 (2 * Array.length keys) in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap t.empty;
  t.live <- 0;
  for i = 0 to Array.length vals - 1 do
    let v = Array.unsafe_get vals i in
    if v != t.empty then replace t (Array.unsafe_get keys i) v
  done

(* snfs-hot *)
and replace t k v =
  if 2 * (t.live + 1) > Array.length t.keys then grow t;
  let i = slot t k in
  if Array.unsafe_get t.vals i == t.empty then begin
    Array.unsafe_set t.keys i k;
    t.live <- t.live + 1
  end;
  Array.unsafe_set t.vals i v

(* Backward shift: walk the run after the freed slot and pull back
   every entry that may legally sit in the hole, so no probe run ever
   has a gap. The entry at [j] stays when its home slot lies cyclically
   in (hole, j], i.e. it is nearer home than the hole is. *)
(* snfs-hot *)
let remove t k =
  let keys = t.keys and vals = t.vals in
  let mask = Array.length keys - 1 in
  t.live > 0
  &&
  let hole = ref (slot t k) in
  Array.unsafe_get vals !hole != t.empty
  && begin
       let j = ref ((!hole + 1) land mask) in
       while Array.unsafe_get vals !j != t.empty do
         let kj = Array.unsafe_get keys !j in
         if (!j - index mask kj) land mask >= (!j - !hole) land mask then begin
           Array.unsafe_set keys !hole kj;
           Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
           hole := !j
         end;
         j := (!j + 1) land mask
       done;
       Array.unsafe_set vals !hole t.empty;
       t.live <- t.live - 1;
       true
     end

let clear t =
  Array.fill t.vals 0 (Array.length t.vals) t.empty;
  t.live <- 0

let fold f t acc =
  let keys = t.keys and vals = t.vals in
  let acc = ref acc in
  for i = 0 to Array.length vals - 1 do
    let v = Array.unsafe_get vals i in
    if v != t.empty then acc := f (Array.unsafe_get keys i) v !acc
  done;
  !acc
