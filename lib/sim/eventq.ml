(* Flat parallel arrays rather than an array of entry records: a
   record-per-event heap allocates on every push (and, with a float
   field in a mixed record, boxes the timestamp too), which at ~50k
   events per Andrew run made the dispatch loop a steady source of
   minor-GC pressure — felt twice over in parallel campaigns, where
   every domain's minor collection stops all domains. With [times] a
   bare float array and the sifts moving a hole instead of swapping,
   push and pop_fn allocate nothing (test_alloc pins this at exactly
   zero minor words).

   The heap arrays hold no closures. An event's closure sits in the
   slot store [fns], written once when the event is pushed and cleared
   once when it is popped; the heap carries only the slot's index. A
   sift therefore moves floats and ints, and a store of either into its
   array is a plain write: only a store of a heap pointer into a
   pointer array calls the GC's write barrier ([caml_modify]), and a
   sift that moved closures paid it at every level.

   [slots] is a permutation of [0, capacity): positions [0, len) are
   the heap's slot indices, positions [len, capacity) the free slots.
   A push takes the free slot at position [len]; a pop hands the
   popped slot back at the position the heap just vacated.

   The sift loops use unsafe array accesses: every index is in
   [0, len) and [len <= Array.length times] is the growth invariant,
   so the bounds checks only cost. *)

type t = {
  mutable times : float array; (* unboxed float storage *)
  mutable seqs : int array;
  mutable slots : int array;
  mutable fns : (unit -> unit) array; (* indexed by slot *)
  mutable len : int;
}

let nop () = ()

let create () =
  {
    times = Array.make 64 0.0;
    seqs = Array.make 64 0;
    slots = Array.init 64 Fun.id;
    fns = Array.make 64 nop;
    len = 0;
  }

(* snfs-hot *)
let is_empty t = t.len = 0
let length t = t.len

let grow t =
  let old = Array.length t.times in
  let cap = 2 * old in
  let times = Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id in
  let fns = Array.make cap nop in
  (* the queue is full: every old slot is in the heap *)
  Array.blit t.times 0 times 0 old;
  Array.blit t.seqs 0 seqs 0 old;
  Array.blit t.slots 0 slots 0 old;
  Array.blit t.fns 0 fns 0 old;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.fns <- fns

(* snfs-hot *)
let push t ~time ~seq fn =
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = Array.unsafe_get slots t.len in
  Array.unsafe_set t.fns slot fn;
  (* sift the hole up, then place the new event once *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue_sift = ref true in
  while !continue_sift && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue_sift := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* snfs-hot *)
let min_time t =
  if t.len = 0 then raise Not_found;
  t.times.(0)

(* snfs-hot *)
let min_seq t =
  if t.len = 0 then raise Not_found;
  t.seqs.(0)

(* snfs-hot *)
let pop_fn t =
  if t.len = 0 then raise Not_found;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top = Array.unsafe_get slots 0 in
  let fn = Array.unsafe_get t.fns top in
  Array.unsafe_set t.fns top nop;
  let n = t.len - 1 in
  t.len <- n;
  (* the displaced last event, sifted down as a hole *)
  let lt = Array.unsafe_get times n
  and ls = Array.unsafe_get seqs n
  and lslot = Array.unsafe_get slots n in
  if n > 0 then begin
    let i = ref 0 in
    let continue_sift = ref true in
    while !continue_sift do
      let l = (2 * !i) + 1 in
      if l >= n then continue_sift := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (Array.unsafe_get times r < Array.unsafe_get times l
               || (Array.unsafe_get times r = Array.unsafe_get times l
                  && Array.unsafe_get seqs r < Array.unsafe_get seqs l))
          then r
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < lt || (ct = lt && Array.unsafe_get seqs c < ls) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue_sift := false
      end
    done;
    Array.unsafe_set times !i lt;
    Array.unsafe_set seqs !i ls;
    Array.unsafe_set slots !i lslot
  end;
  (* the popped event's slot joins the free ones *)
  Array.unsafe_set slots n top;
  fn

(* One call per dispatched event: emptiness check, clock store and pop
   in a single crossing of the module boundary. The timestamp goes into
   [cell.(0)] (the engine's clock cell — a float array store, so it is
   never boxed), and an empty queue returns the [nop] sentinel instead
   of an option. *)
(* snfs-hot *)
let pop_until t cell =
  if t.len = 0 then nop
  else begin
    cell.(0) <- t.times.(0);
    pop_fn t
  end
