(* A minimal self-contained JSON parser — enough for the trace
   analyzer (and the exporter tests) to read back Chrome trace JSON
   without an external JSON dependency. Promoted from test_obs's
   hand-rolled validator. *)

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Error of string

let parse (s : string) : t =
  let pos = ref 0 in
  let n = String.length s in
  let peek () =
    if !pos >= n then raise (Error "unexpected end") else s.[!pos]
  in
  let advance () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false
    then (
      advance ();
      skip_ws ())
  in
  let expect c =
    skip_ws ();
    if peek () <> c then
      raise (Error (Printf.sprintf "expected %c at byte %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' ->
          advance ();
          Buffer.contents buf
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 >= n then raise (Error "truncated \\u escape");
              let h = String.sub s (!pos + 1) 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ h) with
              | Some code -> Buffer.add_char buf (Char.chr (code land 0xff))
              | None -> raise (Error "bad \\u escape"))
          | c -> raise (Error (Printf.sprintf "bad escape \\%c" c)));
          advance ();
          go ()
      | c when Char.code c < 0x20 -> raise (Error "control char in string")
      | c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | c -> raise (Error (Printf.sprintf "bad char %c in object" c))
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (
          advance ();
          Arr [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | c -> raise (Error (Printf.sprintf "bad char %c in array" c))
          in
          elements []
    | '"' -> Str (parse_string ())
    | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then (
          pos := !pos + 4;
          Bool true)
        else raise (Error "bad literal")
    | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then (
          pos := !pos + 5;
          Bool false)
        else raise (Error "bad literal")
    | 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then (
          pos := !pos + 4;
          Null)
        else raise (Error "bad literal")
    | c when c = '-' || (c >= '0' && c <= '9') ->
        let start = !pos in
        while
          !pos < n
          &&
          match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          advance ()
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> Num x
        | None -> raise (Error (Printf.sprintf "bad number at byte %d" start)))
    | c -> raise (Error (Printf.sprintf "unexpected char %c" c))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Error "trailing garbage");
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num x -> Some x | _ -> None

let str_member k j = Option.bind (member k j) str
let num_member k j = Option.bind (member k j) num
