type t = { line : int; rule : string; text : string }

let ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

let marker = "snfs-lint: allow "

(* the fan-out pass's own idiom: the reason that follows documents the
   bound where the loop lives *)
let bounded = "snfs-fanout: bounded"

let at src i stop m =
  i + String.length m <= stop && String.sub src i (String.length m) = m

(* every waiver in src.[start, stop), [line] being the line of [start] *)
let in_span src ~start ~stop ~line acc =
  let nm = String.length marker in
  let rec go i line acc =
    if i >= stop then acc
    else if src.[i] = '\n' then go (i + 1) (line + 1) acc
    else if at src i stop marker then begin
      let j = ref (i + nm) in
      while !j < stop && ident_char src.[!j] do incr j done;
      let rule = String.sub src (i + nm) (!j - i - nm) in
      go !j line
        (if rule = "" then acc else { line; rule; text = marker ^ rule } :: acc)
    end
    else if at src i stop bounded then
      go (i + String.length bounded) line
        ({ line; rule = "fanout"; text = bounded } :: acc)
    else go (i + 1) line acc
  in
  go start line acc

(* the lexer hands back ordinary comments as COMMENT tokens, doc
   comments as DOCSTRING and string literals as STRING, so only the
   first are searched *)
let scan src =
  Lexer.init ();
  let lexbuf = Lexing.from_string src in
  let rec loop acc =
    match Lexer.token_with_comments lexbuf with
    | Parser.EOF -> List.rev acc
    | Parser.COMMENT (_, loc) ->
        let p = loc.Location.loc_start in
        loop
          (in_span src ~start:p.Lexing.pos_cnum
             ~stop:loc.Location.loc_end.Lexing.pos_cnum ~line:p.Lexing.pos_lnum
             acc)
    | _ -> loop acc
  in
  try loop [] with Lexer.Error _ -> []

let covers w ~rule ~line = w.rule = rule && (w.line = line || w.line = line - 1)
