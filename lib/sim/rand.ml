type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

(* splitmix64, Steele/Lea/Flood. *)
let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rand.int: bound must be positive";
  let v = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem v (Int64.of_int bound))

let float t =
  (* 53 random bits into [0,1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let range t lo hi = lo +. ((hi -. lo) *. float t)

let exponential t mean =
  let u = float t in
  -.mean *. log (1.0 -. u)
