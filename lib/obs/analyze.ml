(* Offline trace analyzer: reconstructs per-operation trees from
   Chrome trace JSON (as exported by Obs.Chrome) and reports where
   each operation class's time went, how callback storms fan out, and
   what each protocol's consistency machinery costs.

   Everything here is a pure function of the trace text: numbers come
   from the recorded simulated timestamps and the output renders with
   fixed formats, so analyzing the same trace twice (or a re-run of
   the same seeded workload) is byte-identical. *)

type span = {
  cat : string;
  name : string;
  track : string;
  id : int;
  t0 : float; (* seconds *)
  t1 : float;
  op : int; (* causal op id; 0 when untagged *)
  queued : float; (* server-queue wait recorded on exec spans *)
}

(* Per-operation critical-path decomposition, all in seconds:
   [total] = root span duration;
   [client]  = total minus time inside this op's client RPCs;
   [network] = RPC round-trip time not accounted to the server;
   [queue]   = time requests waited for a server pool thread;
   [server]  = server handler compute (exec minus disk and callbacks);
   [disk]    = disk I/O performed on the operation's behalf;
   [consist] = consistency-protocol traffic the op induced (callbacks,
               recalls, invalidations), measured by the server's
               callback RPC spans. *)
type op_stat = {
  op_id : int;
  cls : string;
  total : float;
  client : float;
  network : float;
  queue : float;
  server : float;
  disk : float;
  consist : float;
  fanout : int; (* callback RPCs this operation induced *)
}

type run = {
  label : string;
  protocol : string;
  ops : op_stat list; (* sorted by op id *)
  orphan_spans : int; (* op-tagged spans with no root op span *)
  callback_spans : int;
  flow_starts : int;
  flow_ends : int;
  flow_linked : int; (* callback spans whose op id has both flow ends *)
}

(* a callback program is "<proto>_cb.<fsid>"; its spans are the
   consistency traffic *)
let is_callback_name name =
  let sub = "_cb." in
  let n = String.length name and m = String.length sub in
  let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
  go 0

(* liveness probes on the callback program (the laundromat pinging a
   silent client) are background health traffic, not consistency work
   induced by a client operation — keep them out of the callback
   accounting *)
let is_ping name =
  let suffix = ".ping" in
  let n = String.length name and m = String.length suffix in
  n >= m && String.sub name (n - m) m = suffix

let prog_of_rpc_name name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> String.sub name 0 i

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---- Chrome JSON -> spans ---- *)

let parse_chrome ~label text =
  let json = Json.parse text in
  let entries =
    match Json.member "traceEvents" json with
    | Some (Json.Arr es) -> es
    | _ -> raise (Json.Error (label ^ ": no traceEvents array"))
  in
  let tid_names = Hashtbl.create 16 in
  let opens : (int, Json.t) Hashtbl.t = Hashtbl.create 256 in
  let spans = ref [] in
  let flow_starts = ref [] in
  let flow_ends = ref [] in
  let get k e = Json.str_member k e in
  let getn k e = Json.num_member k e in
  let arg_num k e =
    match Json.member "args" e with
    | Some args -> Json.num_member k args
    | None -> None
  in
  List.iter
    (fun e ->
      match get "ph" e with
      | Some "M" -> (
          match get "name" e with
          | Some "thread_name" -> (
              match (getn "tid" e, Json.member "args" e) with
              | Some tid, Some args -> (
                  match Json.str_member "name" args with
                  | Some n -> Hashtbl.replace tid_names (int_of_float tid) n
                  | None -> ())
              | _ -> ())
          | _ -> ())
      | Some "b" -> (
          match getn "id" e with
          | Some id -> Hashtbl.replace opens (int_of_float id) e
          | None -> ())
      | Some "e" -> (
          match getn "id" e with
          | None -> ()
          | Some idf -> (
              let id = int_of_float idf in
              match Hashtbl.find_opt opens id with
              | None -> ()
              | Some b ->
                  Hashtbl.remove opens id;
                  let field d k ev =
                    match getn k ev with Some x -> x | None -> d
                  in
                  let t0 = field 0.0 "ts" b /. 1e6 in
                  let t1 = field t0 "ts" e /. 1e6 in
                  let track =
                    match getn "tid" b with
                    | Some tid -> (
                        match
                          Hashtbl.find_opt tid_names (int_of_float tid)
                        with
                        | Some n -> n
                        | None -> string_of_int (int_of_float tid))
                    | None -> "?"
                  in
                  let op =
                    match arg_num "op" b with
                    | Some x -> int_of_float x
                    | None -> 0
                  in
                  let queued =
                    match arg_num "queued" b with Some x -> x | None -> 0.0
                  in
                  spans :=
                    {
                      cat =
                        (match get "cat" b with Some c -> c | None -> "");
                      name =
                        (match get "name" b with Some n -> n | None -> "");
                      track;
                      id;
                      t0;
                      t1;
                      op;
                      queued;
                    }
                    :: !spans))
      | Some "s" -> (
          match getn "id" e with
          | Some id -> flow_starts := int_of_float id :: !flow_starts
          | None -> ())
      | Some "f" -> (
          match getn "id" e with
          | Some id -> flow_ends := int_of_float id :: !flow_ends
          | None -> ())
      | _ -> ())
    entries;
  let spans =
    List.sort
      (fun a b -> compare (a.t0, a.id, a.name) (b.t0, b.id, b.name))
      !spans
  in
  (spans, List.rev !flow_starts, List.rev !flow_ends)

(* ---- spans -> per-operation stats ---- *)

let clamp x = if x > 0.0 then x else 0.0

let of_spans ~label (spans, flow_starts, flow_ends) =
  (* dominant non-callback RPC program names the protocol *)
  let prog_votes = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if
        s.cat = "rpc"
        && (not (starts_with ~prefix:"exec " s.name))
        && not (is_callback_name s.name)
      then
        let prog = prog_of_rpc_name s.name in
        Hashtbl.replace prog_votes prog
          (1 + Option.value ~default:0 (Hashtbl.find_opt prog_votes prog)))
    spans;
  let protocol =
    Hashtbl.fold (fun prog n acc -> (n, prog) :: acc) prog_votes []
    |> List.sort (fun (na, pa) (nb, pb) ->
           match compare nb na with 0 -> compare pa pb | c -> c)
    |> function
    | (_, p) :: _ -> p
    | [] -> "?"
  in
  let roots = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.cat = "op" then Hashtbl.replace roots s.id s)
    spans;
  (* accumulate each op's downstream spans *)
  let acc : (int, float * float * float * float * float * int) Hashtbl.t =
    Hashtbl.create 64
  in
  (* (rpc, exec, queued, disk, consist, fanout) *)
  let orphans = ref 0 in
  let callback_spans = ref 0 in
  let linked = ref 0 in
  let start_set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace start_set id ()) flow_starts;
  let end_set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace end_set id ()) flow_ends;
  List.iter
    (fun s ->
      if s.cat = "rpc" && is_callback_name s.name
         && (not (starts_with ~prefix:"exec " s.name))
         && not (is_ping s.name)
      then begin
        incr callback_spans;
        if
          s.op > 0
          && Hashtbl.mem start_set s.op
          && Hashtbl.mem end_set s.op
        then incr linked
      end;
      if s.op > 0 && s.cat <> "op" then begin
        if not (Hashtbl.mem roots s.op) then incr orphans;
        let rpc, exec, queued, disk, consist, fanout =
          Option.value ~default:(0.0, 0.0, 0.0, 0.0, 0.0, 0)
            (Hashtbl.find_opt acc s.op)
        in
        let dur = s.t1 -. s.t0 in
        let cell =
          if s.cat = "disk" then (rpc, exec, queued, disk +. dur, consist, fanout)
          else if s.cat <> "rpc" then (rpc, exec, queued, disk, consist, fanout)
          else if starts_with ~prefix:"exec " s.name then
            if is_callback_name s.name then
              (* the client-side handling of a callback; its time is
                 already inside the server's callback RPC span *)
              (rpc, exec, queued, disk, consist, fanout)
            else (rpc, exec +. dur, queued +. s.queued, disk, consist, fanout)
          else if is_callback_name s.name then
            (rpc, exec, queued, disk, consist +. dur, fanout + 1)
          else (rpc +. dur, exec, queued, disk, consist, fanout)
        in
        Hashtbl.replace acc s.op cell
      end)
    spans;
  let ops =
    Hashtbl.fold (fun id root l -> (id, root) :: l) roots []
    |> List.sort compare
    |> List.map (fun (id, (root : span)) ->
           let rpc, exec, queued, disk, consist, fanout =
             Option.value ~default:(0.0, 0.0, 0.0, 0.0, 0.0, 0)
               (Hashtbl.find_opt acc id)
           in
           let total = root.t1 -. root.t0 in
           {
             op_id = id;
             cls = root.name;
             total;
             client = clamp (total -. rpc);
             network = clamp (rpc -. exec -. queued);
             queue = queued;
             server = clamp (exec -. disk -. consist);
             disk;
             consist;
             fanout;
           })
  in
  {
    label;
    protocol;
    ops;
    orphan_spans = !orphans;
    callback_spans = !callback_spans;
    flow_starts = List.length flow_starts;
    flow_ends = List.length flow_ends;
    flow_linked = !linked;
  }

let of_chrome ~label text = of_spans ~label (parse_chrome ~label text)

(* ---- reporting ---- *)

let ms x = Printf.sprintf "%.3f" (x *. 1e3)

let critical_path_table run =
  let classes = Hashtbl.create 16 in
  List.iter
    (fun o ->
      let n, t, c, nw, q, sv, d, cs =
        Option.value
          ~default:(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
          (Hashtbl.find_opt classes o.cls)
      in
      Hashtbl.replace classes o.cls
        ( n + 1,
          t +. o.total,
          c +. o.client,
          nw +. o.network,
          q +. o.queue,
          sv +. o.server,
          d +. o.disk,
          cs +. o.consist ))
    run.ops;
  let rows =
    Hashtbl.fold (fun cls cell l -> (cls, cell) :: l) classes []
    |> List.sort compare
    |> List.map (fun (cls, (n, t, c, nw, q, sv, d, cs)) ->
           [
             cls; string_of_int n; ms t; ms c; ms nw; ms q; ms sv; ms d; ms cs;
           ])
  in
  Stats.Table.render
    ~header:
      [
        "class"; "n"; "total ms"; "client"; "network"; "queue"; "server";
        "disk"; "consist";
      ]
    rows

let storm_tables run =
  let buf = Buffer.create 256 in
  let dist = Hashtbl.create 8 in
  let inducers = Hashtbl.create 8 in
  List.iter
    (fun o ->
      if o.fanout > 0 then begin
        Hashtbl.replace dist o.fanout
          (1 + Option.value ~default:0 (Hashtbl.find_opt dist o.fanout));
        Hashtbl.replace inducers o.cls
          (o.fanout
          + Option.value ~default:0 (Hashtbl.find_opt inducers o.cls))
      end)
    run.ops;
  if Hashtbl.length dist = 0 then
    Buffer.add_string buf "no callbacks induced\n"
  else begin
    let rows =
      Hashtbl.fold (fun fanout n l -> (fanout, n) :: l) dist []
      |> List.sort compare
      |> List.map (fun (fanout, n) -> [ string_of_int fanout; string_of_int n ])
    in
    Buffer.add_string buf
      (Stats.Table.render ~header:[ "fan-out"; "ops" ] rows);
    let rows =
      Hashtbl.fold (fun cls n l -> (cls, n) :: l) inducers []
      |> List.sort (fun (ca, na) (cb, nb) ->
             match compare nb na with 0 -> compare ca cb | c -> c)
      |> List.map (fun (cls, n) -> [ cls; string_of_int n ])
    in
    Buffer.add_string buf
      (Stats.Table.render ~header:[ "inducing class"; "callbacks" ] rows)
  end;
  Buffer.contents buf

let tax_row run =
  let ops = List.length run.ops in
  let total = List.fold_left (fun a o -> a +. o.total) 0.0 run.ops in
  let cb = List.fold_left (fun a o -> a + o.fanout) 0 run.ops in
  let cb_ms = List.fold_left (fun a o -> a +. o.consist) 0.0 run.ops in
  let tax = if total > 0.0 then 100.0 *. cb_ms /. total else 0.0 in
  [
    run.protocol;
    string_of_int ops;
    ms total;
    string_of_int cb;
    ms cb_ms;
    Printf.sprintf "%.2f" tax;
  ]

let report runs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun run ->
      Buffer.add_string buf
        (Printf.sprintf "== %s (protocol %s) ==\n" run.label run.protocol);
      Buffer.add_string buf
        (Printf.sprintf
           "traced ops %d, orphan spans %d, callback spans %d \
            (flow-linked %d; %d flow starts, %d flow ends)\n"
           (List.length run.ops) run.orphan_spans run.callback_spans
           run.flow_linked run.flow_starts run.flow_ends);
      Buffer.add_string buf "-- critical path by op class --\n";
      Buffer.add_string buf (critical_path_table run);
      Buffer.add_string buf "-- callback storms --\n";
      Buffer.add_string buf (storm_tables run);
      Buffer.add_char buf '\n')
    runs;
  Buffer.add_string buf "== consistency tax ==\n";
  Buffer.add_string buf
    (Stats.Table.render
       ~header:
         [ "protocol"; "ops"; "total ms"; "callbacks"; "callback ms"; "tax %" ]
       (List.map tax_row runs));
  Buffer.contents buf
