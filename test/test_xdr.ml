(* Tests for the XDR encoder/decoder: round trips, alignment, and
   malformed-input handling. The signed 32-bit and 64-bit primitives
   are reached through the public formats built on them: [enum] and
   the causal-context codec [Xdr.ctx]. *)

let roundtrip enc_fn dec_fn v =
  let e = Xdr.Enc.create () in
  enc_fn e v;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  let v' = dec_fn d in
  Xdr.Dec.check_done d;
  v'

let roundtrip_codec c v = roundtrip c.Xdr.enc c.Xdr.dec v
let encoded_length c v =
  let e = Xdr.Enc.create () in
  c.Xdr.enc e v;
  Bytes.length (Xdr.Enc.to_bytes e)

(* a counted array of signed 32-bit ints *)
let int32s = Xdr.list { Xdr.enc = Xdr.Enc.enum; dec = Xdr.Dec.enum }

let test_int32_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "int %d" v)
        v
        (roundtrip Xdr.Enc.enum Xdr.Dec.enum v))
    [ 0; 1; -1; 42; -42; 0x7FFFFFFF; -0x80000000 ]

let test_int32_range_check () =
  let e = Xdr.Enc.create () in
  Alcotest.check_raises "too big" (Xdr.Error "Enc.int32: 2147483648 out of range")
    (fun () -> Xdr.Enc.enum e 0x80000000)

let test_uint32_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "uint %d" v)
        v
        (roundtrip Xdr.Enc.uint32 Xdr.Dec.uint32 v))
    [ 0; 1; 0x7FFFFFFF; 0xFFFFFFFF ]

let test_hyper_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "hyper %d" v) v
        (roundtrip_codec Xdr.ctx v))
    [ 0; 1; -1; max_int; min_int; 0x0EADBEEF12345678 ];
  Alcotest.(check int) "two words" 8 (encoded_length Xdr.ctx 1)

let test_bool_roundtrip () =
  Alcotest.(check bool) "true" true (roundtrip Xdr.Enc.bool Xdr.Dec.bool true);
  Alcotest.(check bool) "false" false (roundtrip Xdr.Enc.bool Xdr.Dec.bool false)

let test_bool_bad_discriminant () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 7;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  Alcotest.check_raises "bad bool" (Xdr.Error "Dec.bool: bad discriminant 7")
    (fun () -> ignore (Xdr.Dec.bool d))

let test_float64_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "float %g" v)
        v
        (roundtrip Xdr.Enc.float64 Xdr.Dec.float64 v))
    [ 0.0; 1.5; -3.25; 1e300; Float.min_float ]

let test_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "string %S" s)
        s
        (roundtrip Xdr.Enc.string Xdr.Dec.string s))
    [ ""; "a"; "ab"; "abc"; "abcd"; "hello world"; String.make 100 'x' ]

let test_string_alignment () =
  (* encoded length is always a multiple of 4 *)
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "aligned %S" s)
        0
        (encoded_length Xdr.string s mod 4))
    [ ""; "a"; "ab"; "abc"; "abcd"; "abcde" ]

(* a string is variable-length opaque data: any bytes round-trip *)
let test_opaque_roundtrip () =
  let b = "\x00\x01\x02\xFF\xFE" in
  Alcotest.(check string) "opaque" b (roundtrip_codec Xdr.string b)

(* length word, then the bytes padded to the next multiple of 4 *)
let test_opaque_fixed_roundtrip () =
  Alcotest.(check int) "padded" 12 (encoded_length Xdr.string "1234567");
  Alcotest.(check string) "content" "1234567"
    (roundtrip_codec Xdr.string "1234567")

let test_array_roundtrip () =
  let items = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check (list int)) "array" items (roundtrip_codec int32s items);
  Alcotest.(check int) "length word, then one word each" 36
    (encoded_length int32s items)

let test_mixed_structure () =
  (* a record-like compound encodes and decodes field by field *)
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 99;
  Xdr.Enc.string e "filename.c";
  Xdr.Enc.bool e true;
  Xdr.ctx.enc e 123456789;
  int32s.enc e [ 1; 2; 3 ];
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  Alcotest.(check int) "f1" 99 (Xdr.Dec.uint32 d);
  Alcotest.(check string) "f2" "filename.c" (Xdr.Dec.string d);
  Alcotest.(check bool) "f3" true (Xdr.Dec.bool d);
  Alcotest.(check int) "f4" 123456789 (Xdr.ctx.dec d);
  Alcotest.(check (list int)) "f5" [ 1; 2; 3 ] (int32s.dec d);
  Xdr.Dec.check_done d

let test_truncated_input () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 5; (* string length 5 but no bytes follow *)
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  match Xdr.Dec.string d with
  | _ -> Alcotest.fail "should raise"
  | exception Xdr.Error _ -> ()

let test_trailing_bytes_detected () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 1;
  Xdr.Enc.uint32 e 2;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  ignore (Xdr.Dec.uint32 d);
  match Xdr.Dec.check_done d with
  | () -> Alcotest.fail "should detect trailing bytes"
  | exception Xdr.Error _ -> ()

(* words go on the wire big-endian, whole *)
let test_word_bytes () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 0x01020304;
  Xdr.Enc.uint32 e 0xFFFFFFFE;
  Xdr.Enc.enum e (-2);
  Alcotest.(check string) "bytes"
    "\x01\x02\x03\x04\xFF\xFF\xFF\xFE\xFF\xFF\xFF\xFE"
    (Bytes.to_string (Xdr.Enc.to_bytes e))

(* the padding of a string must be there too *)
let test_string_padding_truncated () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e 3;
  let b = Bytes.cat (Xdr.Enc.to_bytes e) (Bytes.of_string "abc") in
  match Xdr.Dec.string (Xdr.Dec.of_bytes b) with
  | _ -> Alcotest.fail "should raise"
  | exception Xdr.Error _ -> ()

(* An encoder made while another is live (one encoding nested in
   another) is a separate buffer, and a finished encoder refuses more
   words. *)
let test_nested_encoders () =
  let outer = Xdr.Enc.create () in
  Xdr.Enc.uint32 outer 1;
  let inner = Xdr.Enc.create () in
  Xdr.Enc.uint32 inner 2;
  Xdr.Enc.uint32 outer 3;
  let inner_bytes = Xdr.Enc.to_bytes inner in
  Xdr.Enc.uint32 outer 4;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes outer) in
  Alcotest.(check (list int)) "outer" [ 1; 3; 4 ]
    (List.init 3 (fun _ -> Xdr.Dec.uint32 d));
  Xdr.Dec.check_done d;
  Alcotest.(check int) "inner" 2
    (Xdr.Dec.uint32 (Xdr.Dec.of_bytes inner_bytes));
  Alcotest.check_raises "finished"
    (Xdr.Error "Enc: encoder already finished") (fun () ->
      Xdr.Enc.uint32 outer 5);
  let again = Xdr.Enc.create () in
  Xdr.Enc.uint32 again 6;
  Alcotest.(check int) "a new encoder starts empty" 4
    (Bytes.length (Xdr.Enc.to_bytes again))

(* ---- properties ---- *)

let prop_int32 =
  QCheck.Test.make ~name:"int32 round trip" ~count:500
    (QCheck.int_range (-0x80000000) 0x7FFFFFFF)
    (fun v -> roundtrip Xdr.Enc.enum Xdr.Dec.enum v = v)

let prop_hyper =
  QCheck.Test.make ~name:"hyper round trip" ~count:500 QCheck.int (fun v ->
      roundtrip_codec Xdr.ctx v = v)

let prop_string =
  QCheck.Test.make ~name:"string round trip" ~count:500 QCheck.string (fun s ->
      roundtrip Xdr.Enc.string Xdr.Dec.string s = s)

let prop_string_aligned =
  QCheck.Test.make ~name:"string encoding 4-byte aligned" ~count:500
    QCheck.string (fun s -> encoded_length Xdr.string s mod 4 = 0)

let prop_int_list =
  QCheck.Test.make ~name:"int array round trip" ~count:200
    QCheck.(list (int_range (-1000) 1000))
    (fun items -> roundtrip_codec int32s items = items)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "xdr"
    [
      ( "scalars",
        [
          Alcotest.test_case "int32" `Quick test_int32_roundtrip;
          Alcotest.test_case "int32 range" `Quick test_int32_range_check;
          Alcotest.test_case "uint32" `Quick test_uint32_roundtrip;
          Alcotest.test_case "hyper" `Quick test_hyper_roundtrip;
          Alcotest.test_case "bool" `Quick test_bool_roundtrip;
          Alcotest.test_case "bad bool" `Quick test_bool_bad_discriminant;
          Alcotest.test_case "float64" `Quick test_float64_roundtrip;
          Alcotest.test_case "word bytes" `Quick test_word_bytes;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "string" `Quick test_string_roundtrip;
          Alcotest.test_case "string alignment" `Quick test_string_alignment;
          Alcotest.test_case "opaque" `Quick test_opaque_roundtrip;
          Alcotest.test_case "opaque fixed" `Quick test_opaque_fixed_roundtrip;
          Alcotest.test_case "array" `Quick test_array_roundtrip;
          Alcotest.test_case "mixed structure" `Quick test_mixed_structure;
          Alcotest.test_case "nested encoders" `Quick test_nested_encoders;
        ] );
      ( "errors",
        [
          Alcotest.test_case "truncated" `Quick test_truncated_input;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_detected;
          Alcotest.test_case "string padding truncated" `Quick
            test_string_padding_truncated;
        ] );
      ( "properties",
        qc [ prop_int32; prop_hyper; prop_string; prop_string_aligned; prop_int_list ]
      );
    ]
