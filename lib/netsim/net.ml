(* the paper's testbed: a 10 Mbit/s Ethernet (Section 5.2) *)
let latency = 0.0003 (* propagation + medium access, seconds *)
let bandwidth = 1.25e6 (* bytes per second *)
let header_bytes = 64 (* per-message framing on the wire *)

type host = {
  hnet : t;
  hname : string;
  haddr : int;
  hcpu : Sim.Resource.t;
  mutable hup : bool;
  mutable hepoch : int;
}

and t = {
  engine : Sim.Engine.t;
  mutable jitter : float;
  medium : Sim.Resource.t;
  rand : Sim.Rand.t;
  mutable drop_prob : float;
  mutable hosts : host list; (* newest first; addr = position from end *)
  mutable next_addr : int;
  mutable partitions : (int * int) list; (* normalized (lo, hi) addr pairs *)
}

let create engine () =
  {
    engine;
    jitter = 0.0;
    medium = Sim.Resource.create engine "net.medium";
    rand = Sim.Rand.create 0x5EEDL;
    drop_prob = 0.0;
    hosts = [];
    next_addr = 0;
    partitions = [];
  }

let engine t = t.engine

let set_drop_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Net.set_drop_probability";
  t.drop_prob <- p

let set_jitter t j =
  if j < 0.0 then invalid_arg "Net.set_jitter";
  t.jitter <- j

module Host = struct
  type nonrec net = t [@@warning "-34"]

  type t = host

  let create net name =
    let h =
      {
        hnet = net;
        hname = name;
        haddr = net.next_addr;
        hcpu = Sim.Resource.create net.engine (name ^ ".cpu");
        hup = true;
        hepoch = 0;
      }
    in
    net.next_addr <- net.next_addr + 1;
    net.hosts <- h :: net.hosts;
    h

  let name h = h.hname
  let addr h = h.haddr
  let net h = h.hnet
  let engine h = h.hnet.engine
  let cpu h = h.hcpu

  let use_cpu h seconds =
    if seconds > 0.0 then Sim.Resource.use h.hcpu seconds

  let crash h = h.hup <- false

  let reboot h =
    h.hup <- true;
    h.hepoch <- h.hepoch + 1

  let boot_epoch h = h.hepoch

  let by_addr net addr =
    match List.find_opt (fun h -> h.haddr = addr) net.hosts with
    | Some h -> h
    | None -> invalid_arg (Printf.sprintf "Net.Host.by_addr: no host %d" addr)
end

let pair a b = if a.haddr <= b.haddr then (a.haddr, b.haddr) else (b.haddr, a.haddr)

(* [send] asks on every message, and almost no run has a partition:
   the empty case allocates no pair and walks no list *)
let partitioned t a b =
  match t.partitions with
  | [] -> false
  | ps ->
      let lo = Int.min a.haddr b.haddr and hi = Int.max a.haddr b.haddr in
      List.exists (fun (l, h) -> l = lo && h = hi) ps

let partition_event t name a b =
  if Obs.Trace.on () then
    Obs.Trace.instant ~ts:(Sim.Engine.now t.engine) ~cat:"net" ~name
      ~track:"net"
      ~args:
        [ ("a", Obs.Trace.Str a.hname); ("b", Obs.Trace.Str b.hname) ]
      ()

let partition t a b =
  if not (partitioned t a b) then begin
    t.partitions <- pair a b :: t.partitions;
    partition_event t "partition" a b
  end

let heal t a b =
  if partitioned t a b then begin
    let lo, hi = pair a b in
    t.partitions <-
      List.filter (fun (l, h) -> not (l = lo && h = hi)) t.partitions;
    partition_event t "heal" a b
  end

(* a dropped message, noted when it would have arrived *)
let drop t src dst wire_bytes =
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:[ ("host", src.hname) ]
      "net_messages_dropped_total";
  if Obs.Trace.on () then
    Obs.Trace.instant ~ts:(Sim.Engine.now t.engine) ~cat:"net" ~name:"drop"
      ~track:"net"
      ~args:
        [ ("src", Obs.Trace.Str src.hname);
          ("dst", Obs.Trace.Str dst.hname);
          ("bytes", Obs.Trace.Int wire_bytes) ]
      ()

let send t ~src ~dst ~bytes ~deliver =
  if bytes < 0 then invalid_arg "Net.send: negative size";
  if not src.hup then () (* a dead host transmits nothing *)
  else begin
    let wire_bytes = bytes + header_bytes in
    if Obs.Metrics.on () then begin
      Obs.Metrics.incr ~labels:[ ("host", src.hname) ] "net_messages_total";
      Obs.Metrics.incr
        ~labels:[ ("host", src.hname) ]
        ~n:wire_bytes "net_bytes_total"
    end;
    let dropped =
      partitioned t src dst
      || (t.drop_prob > 0.0 && Sim.Rand.float t.rand < t.drop_prob)
    in
    if Obs.Trace.on () then
      Obs.Trace.instant ~ts:(Sim.Engine.now t.engine) ~cat:"net" ~name:"send"
        ~track:src.hname
        ~args:
          [ ("dst", Obs.Trace.Str dst.hname);
            ("bytes", Obs.Trace.Int wire_bytes) ]
        ();
    (* One event per message: the medium is a FIFO reservation, so the
       send knows when transmission ends. The delivery is queued now,
       at [finish +. delay] with the jitter drawn at send, and takes its
       seq now: among events at that instant it runs before those
       queued while the message is on the wire (DESIGN.md 11.1 rule 9). *)
    let finish =
      Sim.Resource.reserve t.medium
        (float_of_int wire_bytes /. bandwidth)
    in
    let delay =
      if t.jitter > 0.0 then latency +. (Sim.Rand.float t.rand *. t.jitter)
      else latency
    in
    let arrival = finish +. delay in
    if dropped then
      Sim.Engine.at t.engine arrival (fun () -> drop t src dst wire_bytes)
    else
      Sim.Engine.at t.engine arrival (fun () -> if dst.hup then deliver ())
  end
