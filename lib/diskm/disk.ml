(* a DEC RA81: ~22 ms average seek plus ~8.3 ms average rotational
   latency (seconds), 2.2 MB/s peak transfer (bytes per second), and
   1 ms of controller and driver overhead per request *)
let positioning = 0.030
let transfer_rate = 2.2e6
let per_request_overhead = 0.001

type t = {
  name : string;
  engine : Sim.Engine.t;
  arm : Sim.Resource.t;
  (* address following the last request, -1 after one without an
     address: disk addresses are non-negative *)
  mutable next_at : int;
}

let create engine name =
  {
    name;
    engine;
    arm = Sim.Resource.create engine (name ^ ".arm");
    next_at = -1;
  }

let service_time t ~at bytes =
  let sequential =
    match at with Some a -> a = t.next_at | None -> false
  in
  (t.next_at <- match at with Some a -> a + 1 | None -> -1);
  per_request_overhead
  +. (if sequential then 0.0 else positioning)
  +. (float_of_int bytes /. transfer_rate)

(* Span covers queueing for the arm plus service: that whole wait is
   what the request's operation experiences as "disk". *)
let io_span t ~ctx name bytes =
  if Obs.Trace.on () then
    Obs.Trace.span
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"disk" ~name ~track:t.name
      ~args:(Obs.Causal.arg ctx [ ("bytes", Obs.Trace.Int bytes) ])
      ()
  else Obs.Trace.none

let finish_span t sp =
  Obs.Trace.finish ~ts:(Sim.Engine.now t.engine) sp

let read ?at ?(ctx = Obs.Causal.none) t ~bytes =
  if bytes < 0 then invalid_arg "Disk.read: negative size";
  let dur = service_time t ~at bytes in
  if Obs.Metrics.on () then begin
    Obs.Metrics.incr ~labels:[ ("device", t.name) ] "disk_reads_total";
    Obs.Metrics.incr
      ~labels:[ ("device", t.name) ]
      ~n:bytes "disk_bytes_read_total";
    Obs.Metrics.observe ~labels:[ ("device", t.name) ] "disk_io_seconds" dur
  end;
  let sp = io_span t ~ctx "disk read" bytes in
  Sim.Resource.use t.arm dur;
  finish_span t sp

let write ?at ?(ctx = Obs.Causal.none) t ~bytes =
  if bytes < 0 then invalid_arg "Disk.write: negative size";
  let dur = service_time t ~at bytes in
  if Obs.Metrics.on () then begin
    Obs.Metrics.incr ~labels:[ ("device", t.name) ] "disk_writes_total";
    Obs.Metrics.incr
      ~labels:[ ("device", t.name) ]
      ~n:bytes "disk_bytes_written_total";
    Obs.Metrics.observe ~labels:[ ("device", t.name) ] "disk_io_seconds" dur
  end;
  let sp = io_span t ~ctx "disk write" bytes in
  Sim.Resource.use t.arm dur;
  finish_span t sp

let busy_time t = Sim.Resource.busy_time t.arm
