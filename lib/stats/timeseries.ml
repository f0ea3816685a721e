type t = {
  name : string;
  bin : float;
  mutable data : float array;
  mutable max_bin : int; (* highest bin index touched, -1 if none *)
}

let create ~bin name =
  if bin <= 0.0 then invalid_arg "Timeseries.create: bin must be > 0";
  { name; bin; data = Array.make 64 0.0; max_bin = -1 }

let bin_width t = t.bin

let ensure t i =
  if i >= Array.length t.data then begin
    let len = ref (Array.length t.data) in
    while i >= !len do
      len := 2 * !len
    done;
    let data = Array.make !len 0.0 in
    Array.blit t.data 0 data 0 (Array.length t.data);
    t.data <- data
  end

let add t ~time v =
  if time < 0.0 then invalid_arg "Timeseries.add: negative time";
  let i = int_of_float (time /. t.bin) in
  ensure t i;
  t.data.(i) <- t.data.(i) +. v;
  if i > t.max_bin then t.max_bin <- i

let bins t = t.max_bin + 1

let value t i = if i < 0 || i > t.max_bin then 0.0 else t.data.(i)

let rate t i = value t i /. t.bin

let to_list t =
  List.init (bins t) (fun i -> (float_of_int i *. t.bin, t.data.(i)))
