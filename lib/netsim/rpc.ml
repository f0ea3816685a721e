(* The paper's testbed (Section 5.2): Sun RPC's retransmission
   schedule, 1 s doubling, five retransmissions, and the per-message
   CPU costs of a Titan host, charged at both ends. *)
let timeout = 1.0
let retries = 5
let backoff = 2.0
let client_cpu_per_call = 0.002
let server_cpu_per_call = 0.002
let cpu_per_kbyte = 0.003

(* Enough retries that transient packet loss is very unlikely to be
   mistaken for a crashed client, but still finishing (~31 s) before the
   default client-side schedule (~63 s) would time the opener out. *)
let impatient_retries = 4

exception Timeout of { prog : string; proc : string }

exception Server_unavailable of { prog : string; proc : string; waited : float }

(* Retry budget for callers that must survive a server crash window
   but not retry forever: whole calls are re-issued with exponential
   backoff, from 0.5 s doubling up to 30 s, until the budget of
   simulated seconds is spent, then the typed failure surfaces. *)
let initial_backoff = 0.5
let max_backoff = 30.0

type reply = { data : bytes; bulk : int }

(* no reply yet: a caller's until one lands, a call record's until its
   server publishes one. No handler replies with negative bulk. *)
let pending = { data = Bytes.empty; bulk = -1 }

(* a returned call's reply: its [caller] record may outlive the call in
   the retransmission timer, the reply's data need not *)
let returned = { data = Bytes.empty; bulk = -2 }

(* [ctx] is the causal context of the client operation this request
   serves (Obs.Causal.none for background traffic). It rides the
   request like [caller] does — an explicit field of the simulated
   wire header, never ambient state — so handlers can tag the work
   they do, and the work they induce, with the operation that caused
   it. *)
type handler = caller:Net.Host.t -> ctx:Obs.Causal.t -> Xdr.Dec.t -> reply

(* Everything the request path needs per procedure, resolved once per
   procedure instead of once per request: its handler, its trace names
   (string concatenations) and its operation-count cell (a
   string-hashed counter lookup). *)
type proc_info = {
  proc : string;
  pname : string; (* "prog.proc" *)
  exec_name : string; (* "exec prog.proc" *)
  count : int ref; (* this proc's cell in the service's [counts] *)
  handler : handler;
}

(* A served program. Its [threads] threads are its one bound: a request
   the DRC lets through runs at once on an idle thread, or waits in
   [backlog] for a thread that finishes, which takes it up in the same
   process. So a waiting request costs a ring slot, not a process. *)
type service = {
  prog : string;
  host : Net.Host.t;
  table : (string * handler) list; (* as served: the first of a name *)
  unknown : handler; (* a procedure [table] does not name *)
  mutable idle : int; (* threads executing nothing *)
  (* requests waiting for a thread, in arrival order: a ring of
     [waiting] calls from [head], with each one's first arrival beside
     it, unboxed, for the trace's [queued]. A slot a thread takes is
     reset to [vacant], so the ring keeps no call alive. *)
  mutable backlog : call array;
  mutable arrivals : float array;
  mutable head : int;
  mutable waiting : int;
  vacant : call;
  drc : Drc.t;
  (* each procedure called so far, in order of first call; a protocol
     has a few dozen procedures, so a scan by string equality beats
     hashing the name *)
  mutable procs : proc_info array;
  counts : Stats.Counter.t;
  mutable on_restart : (unit -> unit) option;
  mutable epoch_seen : int;
}

(* One call's state, from its first transmission to its return: what
   the request carries, where it goes, and what its caller waits for.
   The request delivery, the reply delivery and the server's execution
   are small closures over this record. [served] is the reply the
   server last published for it, which a retransmission the DRC finds
   finished is answered with: every copy of the request carries this
   record, so the reply lives exactly as long as a copy in flight, the
   backlog or the reply's own delivery can still use it. *)
and call = {
  src : Net.Host.t;
  dst : Net.Host.t;
  svc : service option; (* None: no such program at [dst] *)
  info : proc_info;
  ctx : Obs.Causal.t;
  xid : int;
  args : bytes;
  bulk : int;
  caller : caller;
  mutable served : reply; (* [pending] until an execution publishes *)
}

(* What the waiting caller needs, apart from the request: the
   retransmission timer reaches only this, so a call that has returned
   does not keep its record and [args] alive in a timer that will do
   nothing. [args] itself stays with the record: a retransmission still
   in flight may execute again after a reboot. *)
and caller = {
  mutable reply : reply; (* [pending] until one lands *)
  mutable resume : unit -> unit; (* the waiting caller's *)
  mutable round : int; (* the round whose timer is live; -1: none *)
}

type t = {
  net : Net.t;
  services : (int * string, service) Hashtbl.t; (* (host addr, prog) *)
  (* one-slot memo for the per-call service lookup: every client in a
     testbed talks to the same server address and program, so the
     tuple-keyed hash lookup hits this slot almost always *)
  mutable memo_addr : int;
  mutable memo_prog : string;
  mutable memo_svc : service option;
  mutable next_xid : int;
  mutable in_flight : int;
}

let create net () =
  let t =
    {
      net;
      services = Hashtbl.create 8;
      memo_addr = -1;
      memo_prog = "";
      memo_svc = None;
      next_xid = 1;
      in_flight = 0;
    }
  in
  Obs.Metrics.register_poll "rpc_client_in_flight" (fun () ->
      float_of_int t.in_flight);
  t

let net t = t.net

(* a call to a program [dst] does not serve: its requests go nowhere,
   so its handler never runs *)
let unserved ~prog proc =
  let handler ~caller:_ ~ctx:_ _ = pending in
  { proc; pname = prog ^ "." ^ proc; exec_name = ""; count = ref 0; handler }

(* the call in no backlog slot *)
let vacant host =
  {
    src = host;
    dst = host;
    svc = None;
    info = unserved ~prog:"" "";
    ctx = Obs.Causal.none;
    xid = -1;
    args = Bytes.empty;
    bulk = 0;
    caller = { reply = pending; resume = ignore; round = -1 };
    served = pending;
  }

let serve t host ~prog ~threads ~unknown table =
  let key = (Net.Host.addr host, prog) in
  if Hashtbl.mem t.services key then
    invalid_arg ("Rpc.serve: " ^ prog ^ " is already served on this host");
  let svc =
    {
      prog;
      host;
      table;
      unknown;
      idle = threads;
      backlog = [||];
      arrivals = [||];
      head = 0;
      waiting = 0;
      vacant = vacant host;
      drc = Drc.create ();
      procs = [||];
      counts = Stats.Counter.create ();
      on_restart = None;
      epoch_seen = Net.Host.boot_epoch host;
    }
  in
  Hashtbl.replace t.services key svc;
  Obs.Metrics.register_poll
    ~labels:[ ("host", Net.Host.name host); ("prog", prog) ]
    "rpc_dup_cache_entries"
    (fun () -> float_of_int (Drc.length svc.drc));
  svc

let service_host svc = svc.host
let service_prog svc = svc.prog
let counters svc = svc.counts
let set_on_restart svc f = svc.on_restart <- Some f

let payload_cpu bytes = cpu_per_kbyte *. (float_of_int bytes /. 1024.)

let server_now svc = Sim.Engine.now (Net.Host.engine svc.host)

(* a procedure's first call: its counter cell is made now, so a
   procedure never called shows in no count *)
let register_proc svc proc =
  let pname = svc.prog ^ "." ^ proc in
  let i =
    {
      proc;
      pname;
      exec_name = "exec " ^ pname;
      count = Stats.Counter.cell svc.counts proc;
      handler =
        Option.value ~default:svc.unknown (List.assoc_opt proc svc.table);
    }
  in
  svc.procs <- Array.append svc.procs [| i |];
  i

(* snfs-hot *)
let proc_info svc proc =
  let procs = svc.procs in
  let n = Array.length procs in
  let i = ref 0 in
  while
    !i < n
    &&
    let p = (Array.unsafe_get procs !i).proc in
    not (p == proc || String.equal p proc)
  do
    incr i
  done;
  if !i < n then Array.unsafe_get procs !i else register_proc svc proc

let note_duplicate svc ~trace_name ~pname ~xid =
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:[ ("host", Net.Host.name svc.host); ("prog", svc.prog) ]
      "rpc_duplicates_total";
  if Obs.Trace.on () then
    Obs.Trace.instant ~ts:(server_now svc) ~cat:"rpc" ~name:trace_name
      ~track:(Net.Host.name svc.host)
      ~args:[ ("proc", Obs.Trace.Str pname); ("xid", Obs.Trace.Int xid) ]
      ()

(* Wake the caller if it still waits: a timer or a reply, whichever
   comes first, ends the round. *)
let wake w =
  if w.round >= 0 then begin
    w.round <- -1;
    w.resume ()
  end

(* Runs on the client when a reply message arrives. The first reply of
   the call lands, later ones (to retransmissions) are ignored. *)
let land_reply c reply =
  let w = c.caller in
  if w.reply == pending then begin
    if Obs.Trace.on () then
      Obs.Trace.instant
        ~ts:(Sim.Engine.now (Net.Host.engine c.src))
        ~cat:"rpc" ~name:"reply" ~track:(Net.Host.name c.src)
        ~args:[ ("xid", Obs.Trace.Int c.xid) ]
        ();
    w.reply <- reply;
    wake w
  end

(* sends a reply back along the path of this call's request *)
let reply_to c reply =
  Net.send (Net.Host.net c.dst) ~src:c.dst ~dst:c.src
    ~bytes:(Bytes.length reply.data + reply.bulk)
    ~deliver:(fun () -> land_reply c reply)

(* The server's execution of a request on one of its threads, after
   [queued] seconds in the backlog (0 unless traced). *)
let execute svc c queued =
  let count = c.info.count in
  count := !count + 1;
  (* same site as the legacy Stats.Counter path, so the registry and
     the counter tables can never disagree *)
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:
        [
          ("host", Net.Host.name svc.host);
          ("prog", svc.prog);
          ("proc", c.info.proc);
        ]
      "rpc_server_calls_total";
  let sp =
    if Obs.Trace.on () then
      (* [queued] = arrival-to-thread wait, so the analyzer can split
         server queueing from server compute *)
      Obs.Trace.span ~ts:(server_now svc) ~cat:"rpc"
        ~name:c.info.exec_name
        ~track:(Net.Host.name svc.host)
        ~args:
          (Obs.Causal.arg c.ctx
             [
               ("xid", Obs.Trace.Int c.xid);
               ("queued", Obs.Trace.Float queued);
             ])
        ()
    else Obs.Trace.none
  in
  Net.Host.use_cpu svc.host
    (server_cpu_per_call +. payload_cpu (Bytes.length c.args + c.bulk));
  let reply =
    c.info.handler ~caller:c.src ~ctx:c.ctx (Xdr.Dec.of_bytes c.args)
  in
  Net.Host.use_cpu svc.host
    (payload_cpu (Bytes.length reply.data + reply.bulk));
  Obs.Trace.finish ~ts:(server_now svc) sp;
  c.served <- reply;
  Drc.publish svc.drc c.xid;
  reply_to c reply

(* A thread: it executes its request, then each request waiting in the
   backlog, and goes idle when the backlog is empty. It takes the next
   request where a pool semaphore's release would resume the next of
   one process per request, so requests run at the same instants and
   in the same order as those processes would. DESIGN.md §11.1 rule 10
   names the one same-instant case where the two differ. *)
let rec work svc c queued =
  match execute svc c queued with
  | exception e ->
      svc.idle <- svc.idle + 1;
      raise e
  | () ->
      if svc.waiting = 0 then svc.idle <- svc.idle + 1
      else begin
        let h = svc.head in
        let next = Array.unsafe_get svc.backlog h in
        Array.unsafe_set svc.backlog h svc.vacant;
        svc.head <- (h + 1) land (Array.length svc.backlog - 1);
        svc.waiting <- svc.waiting - 1;
        (* a failure names the request being served *)
        if not (next.info.pname == c.info.pname) then
          Sim.Engine.rename (Net.Host.engine svc.host) next.info.pname;
        (* two calls rather than one with a float [if] as its argument,
           which would box that float untraced too *)
        if Obs.Trace.on () then
          work svc next (server_now svc -. Array.unsafe_get svc.arrivals h)
        else work svc next 0.0
      end

(* the backlog is full: double it, unrolling the ring head first *)
let grow_backlog svc =
  let cap = Array.length svc.backlog in
  let backlog = Array.make (Int.max 4 (2 * cap)) svc.vacant
  and arrivals = Array.make (Int.max 4 (2 * cap)) 0.0 in
  let tail = cap - svc.head in
  Array.blit svc.backlog svc.head backlog 0 tail;
  Array.blit svc.backlog 0 backlog tail svc.head;
  Array.blit svc.arrivals svc.head arrivals 0 tail;
  Array.blit svc.arrivals 0 arrivals tail svc.head;
  svc.backlog <- backlog;
  svc.arrivals <- arrivals;
  svc.head <- 0

(* A request the DRC lets through, at its first arrival: a thread if one
   is idle, else the backlog. *)
let dispatch svc c =
  if svc.idle > 0 then begin
    svc.idle <- svc.idle - 1;
    Sim.Engine.spawn (Net.Host.engine svc.host) ~name:c.info.pname
      (* it starts at the arrival instant, so it waited 0 s. One spawned
         task per request an idle thread takes is the DRC's budgeted
         cost; duplicates were filtered above, and a request that waits
         costs no process — snfs-lint: allow hot-alloc *)
      (fun () -> work svc c 0.0)
  end
  else begin
    if svc.waiting = Array.length svc.backlog then grow_backlog svc;
    let i = (svc.head + svc.waiting) land (Array.length svc.backlog - 1) in
    Array.unsafe_set svc.backlog i c;
    Array.unsafe_set svc.arrivals i (server_now svc);
    svc.waiting <- svc.waiting + 1
  end

(* Runs on the server when a request message arrives. *)
let handle_request svc c =
  (* volatile server state does not survive a reboot *)
  let epoch = Net.Host.boot_epoch svc.host in
  if epoch <> svc.epoch_seen then begin
    svc.epoch_seen <- epoch;
    Drc.reset svc.drc;
    match svc.on_restart with None -> () | Some f -> f ()
  end;
  match Drc.arrive svc.drc c.xid with
  | Drop ->
      (* retransmission of a call being served *)
      note_duplicate svc ~trace_name:"dup_drop" ~pname:c.info.pname ~xid:c.xid
  | Replay ->
      (* the entry is finished, so an execution of this very record
         published since the xid was last admitted, and [served] is the
         latest reply published for it *)
      note_duplicate svc ~trace_name:"dup_replay" ~pname:c.info.pname
        ~xid:c.xid;
      reply_to c c.served
  | Execute -> dispatch svc c

(* Every call's round trip, client side, once: successes under
   [outcome=ok], calls that ran out their retransmission schedule under
   [outcome=timeout] (the time spent waiting before giving up). *)
let latency_metric = "rpc_latency_seconds"

let observe_latency ~prog ~proc outcome seconds =
  Obs.Metrics.observe
    ~labels:[ ("prog", prog); ("proc", proc); ("outcome", outcome) ]
    latency_metric seconds

(* One row per (procedure, outcome) recorded, successes first within a
   procedure, so a run with timeouts shows where the timed-out calls'
   waiting went instead of folding them into the success percentiles. *)
let latency_table m =
  let ms seconds = Printf.sprintf "%.3f" (seconds *. 1e3) in
  let rows =
    List.map
      (fun (labels, h) ->
        let label k = Option.value ~default:"" (List.assoc_opt k labels) in
        let prog = label "prog" and procedure = label "proc" in
        let outcome = label "outcome" in
        ( (prog, procedure, outcome <> "ok"),
          [
            prog ^ "." ^ procedure;
            outcome;
            string_of_int (Stats.Histogram.count h);
            ms (Stats.Histogram.mean h);
            ms (Stats.Histogram.percentile h 50.0);
            ms (Stats.Histogram.percentile h 90.0);
            ms (Stats.Histogram.percentile h 99.0);
            ms (Stats.Histogram.max_value h);
          ] ))
      (Obs.Metrics.histograms_with m latency_metric)
  in
  Stats.Table.render
    ~header:
      [
        "procedure"; "outcome"; "n"; "mean ms"; "p50 ms"; "p90 ms"; "p99 ms";
        "max ms";
      ]
    (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) rows))

(* Round [n] of a call: transmit, arm the round's timer, wait for the
   reply or the timer, and retransmit with the timeout doubled while the
   schedule lasts. Returns the last round it waited in; the caller's
   [reply] says whether a reply ended it. A function of the call, not a
   closure per call: every value it needs is the record's or an
   argument. *)
let rec attempt t c ~retries ~prog ~deliver ~expire n timeout =
  let engine = Net.engine t.net and w = c.caller in
  Net.send t.net ~src:c.src ~dst:c.dst ~bytes:(Bytes.length c.args + c.bulk)
    ~deliver;
  Sim.Engine.timer engine timeout expire;
  w.round <- n;
  (* the wait's two resumers, [land_reply] and [expire] (through
     [wake]), each end their event with the resume *)
  Sim.Engine.suspend_tail engine (fun resume -> w.resume <- resume);
  if w.reply != pending || n >= retries then n
  else begin
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("prog", prog); ("proc", c.info.proc) ]
        "rpc_retransmits_total";
    if Obs.Trace.on () then
      Obs.Trace.instant ~ts:(Sim.Engine.now engine) ~cat:"rpc"
        ~name:"retransmit" ~track:(Net.Host.name c.src)
        ~args:
          [ ("proc", Obs.Trace.Str c.info.pname);
            ("xid", Obs.Trace.Int c.xid);
            ("attempt", Obs.Trace.Int (n + 1)) ]
        ();
    attempt t c ~retries ~prog ~deliver ~expire (n + 1) (timeout *. backoff)
  end

let call_once t ~retries ~ctx ~src ~dst ~prog ~proc ~svc ~info ~bulk args =
  let engine = Net.engine t.net in
  let xid = t.next_xid in
  t.next_xid <- xid + 1;
  let issued = Sim.Engine.now engine in
  let track = Net.Host.name src in
  let bytes = Bytes.length args + bulk in
  let sp =
    if Obs.Trace.on () then
      Obs.Trace.span ~ts:issued ~cat:"rpc" ~name:info.pname ~track
        ~args:
          (Obs.Causal.arg ctx
             [ ("xid", Obs.Trace.Int xid);
               ("dst", Obs.Trace.Str (Net.Host.name dst));
               ("bytes", Obs.Trace.Int bytes) ])
        ()
    else Obs.Trace.none
  in
  let c =
    {
      src;
      dst;
      svc;
      info;
      ctx;
      xid;
      args;
      bulk;
      caller = { reply = pending; resume = ignore; round = -1 };
      served = pending;
    }
  in
  let w = c.caller in
  let deliver () =
    match c.svc with Some svc -> handle_request svc c | None -> ()
  in
  (* a round's timer wakes the caller only if no reply has landed and
     the round is still live; at most one round is live at a time *)
  let expire () = if w.reply == pending then wake w in
  Net.Host.use_cpu src (client_cpu_per_call +. payload_cpu bytes);
  (* manual unwind, not Fun.protect: the protect frame and its finally
     closure are measurable on a path taken once per RPC *)
  t.in_flight <- t.in_flight + 1;
  match
    let n = attempt t c ~retries ~prog ~deliver ~expire 0 timeout in
    if w.reply != pending then begin
      (* still inside the resumer's event, so a free CPU's sleep
         continues in place *)
      Net.Host.use_cpu src
        (payload_cpu (Bytes.length w.reply.data + w.reply.bulk));
      let now = Sim.Engine.now engine in
      if Obs.Metrics.on () then
        observe_latency ~prog ~proc "ok" (now -. issued);
      Obs.Trace.finish ~ts:now sp
        ~args:
          (if Obs.Trace.on () then
             [ ("status", Obs.Trace.Str "ok");
               ("retries", Obs.Trace.Int n) ]
           else []);
      let data = w.reply.data in
      w.reply <- returned;
      data
    end
    else begin
      let now = Sim.Engine.now engine in
      if Obs.Metrics.on () then begin
        (* the failed call is part of the latency story too: record
           the time wasted before giving up under its own outcome *)
        observe_latency ~prog ~proc "timeout" (now -. issued);
        Obs.Metrics.incr
          ~labels:[ ("prog", prog); ("proc", proc) ]
          "rpc_timeouts_total"
      end;
      if Obs.Trace.on () then
        Obs.Trace.instant ~ts:now ~cat:"rpc" ~name:"timeout" ~track
          ~args:
            [ ("proc", Obs.Trace.Str info.pname); ("xid", Obs.Trace.Int xid) ]
          ();
      Obs.Trace.finish ~ts:now sp
        ~args:
          (if Obs.Trace.on () then [ ("status", Obs.Trace.Str "timeout") ]
           else []);
      raise (Timeout { prog; proc })
    end
  with
  | data ->
      t.in_flight <- t.in_flight - 1;
      data
  | exception e ->
      t.in_flight <- t.in_flight - 1;
      raise e

let call t ?(impatient = false) ?(ctx = Obs.Causal.none) ~src ~dst ~prog
    ~proc ?budget ?(bulk = 0) args =
  let retries = if impatient then impatient_retries else retries in
  (* one tuple-keyed service lookup and one procedure lookup per call,
     not one per transmission or budgeted round (a program served only
     after a call to it was issued is not a case the simulation
     produces) *)
  let dst_addr = Net.Host.addr dst in
  let svc =
    match t.memo_svc with
    | Some _ when t.memo_addr = dst_addr && String.equal t.memo_prog prog ->
        t.memo_svc
    | _ ->
        let s = Hashtbl.find_opt t.services (dst_addr, prog) in
        (match s with
        | Some _ ->
            t.memo_addr <- dst_addr;
            t.memo_prog <- prog;
            t.memo_svc <- s
        | None -> ());
        s
  in
  let info =
    match svc with Some s -> proc_info s proc | None -> unserved ~prog proc
  in
  match budget with
  | None ->
      call_once t ~retries ~ctx ~src ~dst ~prog ~proc ~svc ~info ~bulk args
  | Some give_up_after ->
      (* each round is a complete call (fresh xid, its own span and
         latency record); between rounds the caller sleeps out a
         bounded exponential backoff. Rounds stop as soon as the next
         backoff would not fit in the budget. *)
      let engine = Net.engine t.net in
      let started = Sim.Engine.now engine in
      let track = Net.Host.name src in
      let rec go backoff =
        match
          call_once t ~retries ~ctx ~src ~dst ~prog ~proc ~svc ~info ~bulk args
        with
        | data -> data
        | exception Timeout _ ->
            let waited = Sim.Engine.now engine -. started in
            if waited +. backoff >= give_up_after then begin
              if Obs.Metrics.on () then
                Obs.Metrics.incr
                  ~labels:[ ("prog", prog); ("proc", proc) ]
                  "rpc_unavailable_total";
              if Obs.Trace.on () then
                Obs.Trace.instant
                  ~ts:(Sim.Engine.now engine)
                  ~cat:"rpc" ~name:"unavailable" ~track
                  ~args:
                    [ ("proc", Obs.Trace.Str info.pname);
                      ("waited", Obs.Trace.Float waited) ]
                  ();
              raise (Server_unavailable { prog; proc; waited })
            end
            else begin
              if Obs.Metrics.on () then
                Obs.Metrics.incr
                  ~labels:[ ("prog", prog); ("proc", proc) ]
                  "rpc_budget_retries_total";
              Sim.Engine.sleep engine backoff;
              go (Float.min (backoff *. 2.0) max_backoff)
            end
      in
      go initial_backoff
