(* Chrome trace-event JSON (the "JSON Array Format" with a
   [traceEvents] wrapper), loadable in chrome://tracing and Perfetto.

   Spans become async "b"/"e" pairs keyed by (cat, id) — unlike "B"/"E"
   duration events they need no per-thread stack discipline, which
   matters because one host runs many simulated processes. Instants
   become "i" events; flow events become "s"/"f" pairs keyed by the
   inducing op id (with "bp":"e" so the arrow binds to the enclosing
   slice), which is how Perfetto draws callback-causality arrows.
   Tracks are mapped to tids in order of first appearance, with "M"
   metadata events carrying the names. A constant "trace_config"
   metadata entry heads every trace (every operation is recorded, and
   span ids start at 1).

   All numbers are printed with fixed formats so equal traces render to
   equal bytes. *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_value buf = function
  | Trace.Str s -> add_escaped buf s
  | Trace.Int i -> Buffer.add_string buf (string_of_int i)
  | Trace.Float f -> Buffer.add_string buf (Printf.sprintf "%.6f" f)
  | Trace.Bool b -> Buffer.add_string buf (if b then "true" else "false")

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ",";
      add_escaped buf k;
      Buffer.add_string buf ":";
      add_value buf v)
    args;
  Buffer.add_string buf "}"

(* microseconds, the unit the trace viewers expect *)
let add_ts buf ts = Buffer.add_string buf (Printf.sprintf "%.3f" (ts *. 1e6))

let to_string tr =
  let events = Trace.events tr in
  let tids = Hashtbl.create 16 in
  let order = ref [] in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tids + 1 in
        Hashtbl.replace tids track id;
        order := (track, id) :: !order;
        id
  in
  (* assign tids in chronological first-appearance order *)
  List.iter (fun (e : Trace.event) -> ignore (tid_of e.track)) events;
  let buf = Buffer.create (4096 + (128 * List.length events)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n"
  in
  sep ();
  Buffer.add_string buf
    "{\"name\":\"trace_config\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"sample_every\":1,\"id_base\":0}}";
  List.iter
    (fun (track, tid) ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":"
           tid);
      add_escaped buf track;
      Buffer.add_string buf "}}")
    (List.rev !order);
  List.iter
    (fun (e : Trace.event) ->
      sep ();
      Buffer.add_string buf "{\"name\":";
      add_escaped buf e.name;
      Buffer.add_string buf ",\"cat\":";
      add_escaped buf e.cat;
      let ph =
        match e.kind with
        | Trace.Begin -> "b"
        | Trace.End -> "e"
        | Trace.Instant -> "i"
        | Trace.Flow_start -> "s"
        | Trace.Flow_end -> "f"
      in
      Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\"" ph);
      (match e.kind with
      | Trace.Begin | Trace.End | Trace.Flow_start ->
          Buffer.add_string buf (Printf.sprintf ",\"id\":%d" e.id)
      | Trace.Flow_end ->
          (* bind the arrow head to the enclosing slice's end *)
          Buffer.add_string buf
            (Printf.sprintf ",\"id\":%d,\"bp\":\"e\"" e.id)
      | Trace.Instant -> Buffer.add_string buf ",\"s\":\"t\"");
      Buffer.add_string buf ",\"ts\":";
      add_ts buf e.ts;
      Buffer.add_string buf
        (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"args\":" (tid_of e.track));
      add_args buf e.args;
      Buffer.add_string buf "}")
    events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf
