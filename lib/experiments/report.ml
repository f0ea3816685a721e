let banner title =
  let line = String.make (String.length title + 4) '=' in
  Printf.sprintf "%s\n| %s |\n%s" line title line

let secs v =
  if v >= 100.0 then Printf.sprintf "%.0f" v
  else if v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let pct v = Printf.sprintf "%+.0f%%" (v *. 100.0)

let vs ~measured ~paper = Printf.sprintf "%s (paper: %s)" measured paper

let counts c =
  String.concat ""
    (List.map
       (fun (name, n) -> Printf.sprintf "  %-10s %6d\n" name n)
       (Stats.Counter.to_list c))
