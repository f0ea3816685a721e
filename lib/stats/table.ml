(* the first column is left-aligned, the rest right-aligned *)
let pad i width s =
  let n = width - String.length s in
  if n <= 0 then s
  else if i = 0 then s ^ String.make n ' '
  else String.make n ' ' ^ s

let render ~header rows =
  let ncols = List.length header in
  List.iteri
    (fun i row ->
      if List.length row <> ncols then
        invalid_arg
          (Printf.sprintf "Table.render: row %d has %d cells, expected %d" i
             (List.length row) ncols))
    rows;
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)) row
  in
  measure header;
  List.iter measure rows;
  let line row =
    List.mapi (fun i s -> pad i widths.(i) s) row
    |> String.concat "  "
  in
  let sep =
    Array.to_list widths |> List.map (fun w -> String.make w '-') |> String.concat "  "
  in
  String.concat "\n" ((line header :: sep :: List.map line rows) @ [ "" ])

let render_series ~columns rows =
  let fmt v =
    if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.2f" v
  in
  let string_rows = List.map (fun row -> List.map fmt row) rows in
  render ~header:columns string_rows

let sparkline values =
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
  let hi = List.fold_left Float.max 0.0 values in
  if hi <= 0.0 then String.make (List.length values) ' '
  else
    values
    |> List.map (fun v ->
           let level = int_of_float (v /. hi *. 7.0) in
           let level = max 0 (min 7 level) in
           glyphs.(level))
    |> List.to_seq |> String.of_seq
