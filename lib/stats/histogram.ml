type t = {
  name : string;
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create name = { name; samples = Array.make 64 0.0; len = 0; sorted = true }

let add t v =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- v;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.len in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.len;
    t.sorted <- true
  end

let mean t =
  if t.len = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.len - 1 do
      sum := !sum +. t.samples.(i)
    done;
    !sum /. float_of_int t.len
  end

let max_value t =
  let m = ref 0.0 in
  for i = 0 to t.len - 1 do
    if t.samples.(i) > !m then m := t.samples.(i)
  done;
  !m

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile";
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (t.samples.(lo) *. (1.0 -. frac)) +. (t.samples.(hi) *. frac)
  end

let summary t =
  Printf.sprintf "n=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
    (count t) (mean t) (percentile t 50.0) (percentile t 90.0)
    (percentile t 99.0) (max_value t)
