type params = {
  latency : float;
  bandwidth : float;
  header_bytes : int;
  jitter : float;
}

(* the default: a 10 Mbit/s LAN of the paper's era *)
let default_params =
  { latency = 0.0003; bandwidth = 1.25e6; header_bytes = 64; jitter = 0.0 }

type host = {
  hnet : t;
  hname : string;
  haddr : int;
  hcpu : Sim.Resource.t;
  hcpu_factor : float;
  mutable hup : bool;
  mutable hepoch : int;
}

and t = {
  engine : Sim.Engine.t;
  mutable params : params;
  medium : Sim.Resource.t;
  rand : Sim.Rand.t;
  mutable drop_prob : float;
  mutable hosts : host list; (* newest first; addr = position from end *)
  mutable next_addr : int;
  mutable partitions : (int * int) list; (* normalized (lo, hi) addr pairs *)
}

let create engine ?(params = default_params) ?(seed = 0x5EEDL) () =
  {
    engine;
    params;
    medium = Sim.Resource.create engine ~capacity:1 "net.medium";
    rand = Sim.Rand.create seed;
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
  t.params <- { t.params with jitter = j }

module Host = struct
  type nonrec net = t [@@warning "-34"]

  type t = host

  let create net ?(cpu_factor = 1.0) name =
    let h =
      {
        hnet = net;
        hname = name;
        haddr = net.next_addr;
        hcpu = Sim.Resource.create net.engine ~capacity:1 (name ^ ".cpu");
        hcpu_factor = cpu_factor;
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
  let cpu_factor h = h.hcpu_factor

  let use_cpu h seconds =
    if seconds > 0.0 then Sim.Resource.use h.hcpu (seconds *. h.hcpu_factor)

  let is_up h = h.hup
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

let send t ~src ~dst ~bytes ~deliver =
  if bytes < 0 then invalid_arg "Net.send: negative size";
  if not src.hup then () (* a dead host transmits nothing *)
  else begin
    let wire_bytes = bytes + t.params.header_bytes in
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
    (* Transmission occupies the shared medium. No process per message:
       the medium is a FIFO reservation (Resource.reserve), and the
       transmission end + propagation delay are plain scheduled events.
       A per-message fiber here was the single biggest allocator in an
       RPC round trip. The jitter draw still happens at transmission
       end, exactly where the old per-message process drew it, so the
       random stream is unchanged. *)
    let finish =
      Sim.Resource.reserve t.medium
        (float_of_int wire_bytes /. t.params.bandwidth)
    in
    Sim.Engine.at t.engine finish (fun () ->
        let delay =
          t.params.latency
          +. (if t.params.jitter > 0.0 then
                Sim.Rand.float t.rand *. t.params.jitter
              else 0.0)
        in
        Sim.Engine.after t.engine delay @@ fun () ->
        if dropped then begin
          if Obs.Metrics.on () then
            Obs.Metrics.incr
              ~labels:[ ("host", src.hname) ]
              "net_messages_dropped_total";
          if Obs.Trace.on () then
            Obs.Trace.instant ~ts:(Sim.Engine.now t.engine) ~cat:"net"
              ~name:"drop" ~track:"net"
              ~args:
                [ ("src", Obs.Trace.Str src.hname);
                  ("dst", Obs.Trace.Str dst.hname);
                  ("bytes", Obs.Trace.Int wire_bytes) ]
              ()
        end
        else if dst.hup then deliver ())
  end
