type config = {
  input_bytes : int;
  input_path : string;
  output_path : string;
  tmp_dir : string;
}

let default_config =
  {
    input_bytes = 2816 * 1024;
    input_path = "/local/sort.in";
    output_path = "/local/sort.out";
    tmp_dir = "/usr_tmp";
  }

(* Unix sort's shape, with CPU costs in seconds of client CPU per KB
   calibrated once against Table 5-3 *)
let run_bytes = 64 * 1024 (* initial run size *)
let merge_width = 8
let run_cpu_per_kb = 0.0085 (* in-memory sorting of one run *)
let merge_cpu_per_kb = 0.0055 (* per KB passing through a merge *)

type result = { elapsed : float; temp_bytes_written : int }

let setup ctx config =
  Vfs.Fileio.write_file ctx.App.mounts config.input_path
    ~bytes:config.input_bytes

let kb n = float_of_int n /. 1024.

let run ctx config =
  let temp_written = ref 0 in
  let next_temp = ref 0 in
  let temp_name () =
    incr next_temp;
    Printf.sprintf "%s/srt%d.tmp" config.tmp_dir !next_temp
  in
  let elapsed, () =
    App.timed ctx (fun () ->
        (* run formation: read input chunk, sort in memory, write run *)
        let input = Vfs.Fileio.openf ctx.App.mounts config.input_path
            Vfs.Fs.Read_only in
        let runs = ref [] in
        let continue_runs = ref true in
        while !continue_runs do
          let n = Vfs.Fileio.read_bytes input ~len:run_bytes in
          if n = 0 then continue_runs := false
          else begin
            App.think ctx (run_cpu_per_kb *. kb n);
            let name = temp_name () in
            Vfs.Fileio.write_file ctx.App.mounts name ~bytes:n;
            temp_written := !temp_written + n;
            runs := (name, n) :: !runs
          end
        done;
        Vfs.Fileio.close input;
        let runs = ref (List.rev !runs) in
        (* merge passes: combine groups of [merge_width] runs until one
           remains; consumed temporaries are deleted as soon as their
           merge completes *)
        while List.length !runs > 1 do
          let rec group acc l =
            match l with
            | [] -> List.rev acc
            | _ ->
                let rec take n l =
                  if n = 0 then ([], l)
                  else
                    match l with
                    | [] -> ([], [])
                    | x :: rest ->
                        let taken, rem = take (n - 1) rest in
                        (x :: taken, rem)
                in
                let g, rest = take merge_width l in
                group (g :: acc) rest
          in
          let groups = group [] !runs in
          let merged =
            List.map
              (fun g ->
                (* read every input run, interleaved by the merge *)
                let total =
                  List.fold_left
                    (fun acc (name, n) ->
                      ignore (Vfs.Fileio.read_file ctx.App.mounts name);
                      acc + n)
                    0 g
                in
                App.think ctx (merge_cpu_per_kb *. kb total);
                let out = temp_name () in
                Vfs.Fileio.write_file ctx.App.mounts out ~bytes:total;
                temp_written := !temp_written + total;
                (* the consumed runs die young — this is what the
                   delayed-write cancellation feeds on *)
                List.iter
                  (fun (name, _) -> Vfs.Fileio.unlink ctx.App.mounts name)
                  g;
                (out, total))
              groups
          in
          runs := merged
        done;
        (* deliver the output and drop the last temporary *)
        (match !runs with
        | [ (name, n) ] ->
            App.think ctx (merge_cpu_per_kb *. kb n);
            Vfs.Fileio.write_file ctx.App.mounts config.output_path ~bytes:n;
            Vfs.Fileio.unlink ctx.App.mounts name
        | [] -> Vfs.Fileio.write_file ctx.App.mounts config.output_path ~bytes:0
        | _ -> assert false))
  in
  { elapsed; temp_bytes_written = !temp_written }
