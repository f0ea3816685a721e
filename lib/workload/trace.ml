(* the mix, shaped by the BSD trace study *)
let operations = 400
let working_dir = "/data/trace"
let hot_files = 6 (* repeatedly re-read files (headers and the like) *)
let cold_files = 60 (* the long tail *)
let temp_lifetime = 3.0 (* seconds between a temp's birth and death *)
let temp_fraction = 0.15 (* fraction of ops that create a temporary *)
let read_fraction = 0.75 (* of the non-temp ops, how many are reads *)
let mean_think = 0.3 (* CPU-bound think time between operations *)
let small_bytes = 3_000
let large_bytes = 24_000
let seed = 0x7EACEL

type op =
  | Read_whole of string
  | Rewrite of string * int
  | Stat of string
  | Temp of string * int

let file_name i = Printf.sprintf "%s/f%03d" working_dir i

let generate () =
  let rand = Sim.Rand.create seed in
  let pick_file () =
    (* hot files get half of all references despite being few — the
       popularity skew of real traces *)
    if Sim.Rand.float rand < 0.5 then file_name (Sim.Rand.int rand hot_files)
    else file_name (hot_files + Sim.Rand.int rand cold_files)
  in
  let size () =
    if Sim.Rand.float rand < 0.8 then small_bytes else large_bytes
  in
  let temp_counter = ref 0 in
  List.init operations (fun _ ->
      if Sim.Rand.float rand < temp_fraction then begin
        incr temp_counter;
        Temp (Printf.sprintf "%s/tmp%04d" working_dir !temp_counter, size ())
      end
      else if Sim.Rand.float rand < read_fraction then
        if Sim.Rand.float rand < 0.15 then Stat (pick_file ())
        else Read_whole (pick_file ())
      else Rewrite (pick_file (), size ()))

type result = {
  read_lat : Stats.Histogram.t;
  write_lat : Stats.Histogram.t;
  stat_lat : Stats.Histogram.t;
  temp_lat : Stats.Histogram.t;
  elapsed : float;
}

let setup ctx =
  Vfs.Fileio.mkdir ctx.App.mounts working_dir;
  for i = 0 to hot_files + cold_files - 1 do
    Vfs.Fileio.write_file ctx.App.mounts (file_name i) ~bytes:small_bytes
  done

let replay ctx ops =
  let rand = Sim.Rand.create (Int64.add seed 1L) in
  let r =
    {
      read_lat = Stats.Histogram.create "read";
      write_lat = Stats.Histogram.create "rewrite";
      stat_lat = Stats.Histogram.create "stat";
      temp_lat = Stats.Histogram.create "temp";
      elapsed = 0.0;
    }
  in
  let timed hist f =
    let t0 = App.now ctx in
    f ();
    Stats.Histogram.add hist (App.now ctx -. t0)
  in
  let t0 = App.now ctx in
  List.iter
    (fun op ->
      App.think ctx (Sim.Rand.exponential rand mean_think);
      match op with
      | Read_whole path ->
          timed r.read_lat (fun () ->
              ignore (Vfs.Fileio.read_file ctx.App.mounts path))
      | Rewrite (path, bytes) ->
          timed r.write_lat (fun () ->
              Vfs.Fileio.write_file ctx.App.mounts path ~bytes)
      | Stat path ->
          timed r.stat_lat (fun () ->
              ignore (Vfs.Fileio.stat ctx.App.mounts path))
      | Temp (path, bytes) ->
          timed r.temp_lat (fun () ->
              Vfs.Fileio.write_file ctx.App.mounts path ~bytes;
              ignore (Vfs.Fileio.read_file ctx.App.mounts path);
              (* the short life of a compiler temporary *)
              Sim.Engine.sleep ctx.App.engine temp_lifetime;
              Vfs.Fileio.unlink ctx.App.mounts path))
    ops;
  { r with elapsed = App.now ctx -. t0 }
