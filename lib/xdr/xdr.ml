exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let padding len = (4 - (len land 3)) land 3

module Enc = struct
  (* A grow-only byte buffer. Every RPC message in the simulation is
     marshalled through here, and a Buffer.create per message was a
     steady ~40 words of minor-GC pressure each, so each domain keeps
     one scratch encoder: [create] hands it out, and steady-state
     encoding costs only the one [to_bytes] copy that becomes the wire
     payload. A message encoded while the scratch one is still live
     (one encoding nested in another) gets a fresh encoder. [live]
     makes the reuse safe: [to_bytes] finishes the encoder, after
     which any further use (rather than silently corrupting a later
     message sharing the storage) raises. *)
  type t = { mutable buf : bytes; mutable len : int; mutable live : bool }

  let fresh () = { buf = Bytes.create 256; len = 0; live = true }

  let scratch : t Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { buf = Bytes.create 256; len = 0; live = false })

  let create () =
    let e = Domain.DLS.get scratch in
    if e.live then fresh ()
    else begin
      e.len <- 0;
      e.live <- true;
      e
    end

  (* snfs-hot *)
  let check e = if not e.live then error "Enc: encoder already finished"

  let ensure e n =
    let cap = Bytes.length e.buf in
    if e.len + n > cap then begin
      let ncap = ref (if cap = 0 then 256 else 2 * cap) in
      while e.len + n > !ncap do
        ncap := 2 * !ncap
      done;
      let nb = Bytes.create !ncap in
      Bytes.blit e.buf 0 nb 0 e.len;
      e.buf <- nb
    end

  let to_bytes e =
    check e;
    e.live <- false;
    Bytes.sub e.buf 0 e.len

  (* snfs-hot *)
  let uint32 e v =
    if v < 0 || v > 0xFFFFFFFF then error "Enc.uint32: %d out of range" v;
    check e;
    ensure e 4;
    let i = e.len in
    (* one big-endian word store; [Int32.of_int] keeps the low 32 bits *)
    Bytes.set_int32_be e.buf i (Int32.of_int v);
    e.len <- i + 4

  (* snfs-hot *)
  let int32 e v =
    if v < -0x80000000 || v > 0x7FFFFFFF then
      error "Enc.int32: %d out of range" v;
    uint32 e (v land 0xFFFFFFFF)

  let hyper e v =
    uint32 e (Int64.to_int (Int64.shift_right_logical v 32));
    uint32 e (Int64.to_int (Int64.logand v 0xFFFFFFFFL))

  (* snfs-hot *)
  let bool e b = uint32 e (if b then 1 else 0)
  let enum e v = int32 e v
  let float64 e f = hyper e (Int64.bits_of_float f)

  (* snfs-hot *)
  let pad e len =
    let p = padding len in
    if p > 0 then begin
      ensure e p;
      for k = 0 to p - 1 do
        Bytes.unsafe_set e.buf (e.len + k) '\000'
      done;
      e.len <- e.len + p
    end

  (* snfs-hot *)
  let string e s =
    let n = String.length s in
    uint32 e n;
    ensure e n;
    Bytes.blit_string s 0 e.buf e.len n;
    e.len <- e.len + n;
    pad e n

  let array e f items =
    uint32 e (List.length items);
    List.iter f items

  (* Causal-context field: the inducing operation's trace id, carried
     in callback payloads so induced work on another host can name the
     operation that caused it: 0 for none, else the op id, as a hyper
     (the field's fixed wire width). *)
  let ctx e c = hyper e (Int64.of_int c)
end

module Dec = struct
  type t = { buf : bytes; mutable pos : int; limit : int }

  let of_bytes buf = { buf; pos = 0; limit = Bytes.length buf }
  let clone t = { buf = t.buf; pos = t.pos; limit = t.limit }
  let remaining t = t.limit - t.pos

  let check_done t =
    if remaining t <> 0 then error "Dec: %d trailing bytes" (remaining t)

  let need t n =
    if remaining t < n then error "Dec: need %d bytes, have %d" n (remaining t)

  let uint32 t =
    need t 4;
    let i = t.pos in
    t.pos <- i + 4;
    (* one big-endian word load, sign-extended: mask it back to 32 bits *)
    Int32.to_int (Bytes.get_int32_be t.buf i) land 0xFFFFFFFF

  let int32 t =
    let v = uint32 t in
    if v > 0x7FFFFFFF then v - 0x100000000 else v

  let hyper t =
    let hi = uint32 t in
    let lo = uint32 t in
    Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

  let bool t =
    match uint32 t with
    | 0 -> false
    | 1 -> true
    | v -> error "Dec.bool: bad discriminant %d" v

  let enum t = int32 t

  let float64 t = Int64.float_of_bits (hyper t)

  (* one copy, straight into the string *)
  let string t =
    let n = uint32 t in
    need t (n + padding n);
    let s = Bytes.sub_string t.buf t.pos n in
    t.pos <- t.pos + n + padding n;
    s

  let array t f =
    let n = uint32 t in
    if n > 0x1000000 then error "Dec.array: implausible length %d" n;
    (* explicit loop: elements must be decoded left to right *)
    let rec loop i acc =
      if i = n then List.rev acc else loop (i + 1) (f t :: acc)
    in
    loop 0 []

  (* inverse of [Enc.ctx]: 0 decodes to "no context" *)
  let ctx t = Int64.to_int (hyper t)
end

type 'a codec = { enc : Enc.t -> 'a -> unit; dec : Dec.t -> 'a }

let unit = { enc = (fun _ () -> ()); dec = ignore }
let uint32 = { enc = Enc.uint32; dec = Dec.uint32 }
let bool = { enc = Enc.bool; dec = Dec.bool }
let string = { enc = Enc.string; dec = Dec.string }
let ctx = { enc = Enc.ctx; dec = Dec.ctx }

let list c =
  {
    enc = (fun e items -> Enc.array e (c.enc e) items);
    dec = (fun d -> Dec.array d c.dec);
  }

(* each [let] decodes a component before the next, in encoding order *)
let pair a b =
  {
    enc = (fun e (x, y) -> a.enc e x; b.enc e y);
    dec = (fun d -> let x = a.dec d in (x, b.dec d));
  }

let triple a b c =
  {
    enc = (fun e (x, y, z) -> a.enc e x; b.enc e y; c.enc e z);
    dec = (fun d -> let x = a.dec d in let y = b.dec d in (x, y, c.dec d));
  }

let map ~inj ~prj c =
  { enc = (fun e v -> c.enc e (prj v)); dec = (fun d -> inj (c.dec d)) }
