type value = Str of string | Int of int | Float of float | Bool of bool

type kind = Begin | End | Instant | Flow_start | Flow_end

type event = {
  ts : float;
  cat : string;
  name : string;
  kind : kind;
  track : string;
  id : int;
  args : (string * value) list;
}

type t = {
  mutable events : event list; (* newest first *)
  mutable next_span : int;
  mutable count : int;
  mutable live : int; (* length of [events], for ring truncation *)
  limit : int; (* 0 = unbounded; otherwise keep the newest [limit] *)
}

let create ?(limit = 0) () =
  if limit < 0 then invalid_arg "Trace.create: limit must be >= 0";
  { events = []; next_span = 1; count = 0; live = 0; limit }

(* The installed tracer. A single mutable slot (rather than a tracer
   threaded through every constructor) keeps the disabled case to one
   load-and-compare per probe site, which is what makes tracing free
   when off. Determinism is unaffected: the slot only selects the sink;
   all timestamps and ids come from the simulation itself.

   The slot is domain-local state (Domain.DLS), not a process-global
   ref: each domain of a parallel campaign (Experiments.Sweep) installs
   its own tracer and never observes a sibling's. With a shared ref,
   the last domain to install would silently receive every domain's
   events (see test_sweep's seeded-bug demonstration). Within one
   domain the discipline is unchanged: install around a run, uninstall
   after. *)
let slot : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Cross-domain count of installed tracers, mirroring Obs.Metrics:
   the off case of [on] must be one atomic load, not a DLS call. *)
let installed_domains = Atomic.make 0

let install t =
  (match Domain.DLS.get slot with
  | None -> Atomic.incr installed_domains
  | Some _ -> ());
  Domain.DLS.set slot (Some t)

let uninstall () =
  match Domain.DLS.get slot with
  | None -> ()
  | Some _ ->
      Atomic.decr installed_domains;
      Domain.DLS.set slot None

let current () = Domain.DLS.get slot

(* snfs-hot *)
let on () =
  Atomic.get installed_domains > 0
  && match Domain.DLS.get slot with None -> false | Some _ -> true

(* Keep the newest [limit] events. The list is newest-first, so the
   flight-recorder ring is a prefix; truncation runs once per [limit]
   emits (amortized O(1)) rather than on every emit. *)
let truncate tr =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | e :: rest -> e :: take (n - 1) rest
  in
  tr.events <- take tr.limit tr.events;
  tr.live <- tr.limit

let emit tr ev =
  tr.events <- ev :: tr.events;
  tr.count <- tr.count + 1;
  if tr.limit > 0 then begin
    tr.live <- tr.live + 1;
    if tr.live >= 2 * tr.limit then truncate tr
  end

let instant ?(track = "sim") ?(args = []) ~ts ~cat ~name () =
  match current () with
  | None -> ()
  | Some tr -> emit tr { ts; cat; name; kind = Instant; track; id = 0; args }

(* An op id comes from the same counter as span ids, so the
   operation's root span can carry it; 0 means "no tracer". *)
let mint () =
  match current () with
  | None -> 0
  | Some tr ->
      let id = tr.next_span in
      tr.next_span <- id + 1;
      id

type span =
  | No_span
  | Span of { tracer : t; id : int; cat : string; name : string; track : string }

let none = No_span

let span ?(track = "sim") ?(args = []) ~ts ~cat ~name () =
  match current () with
  | None -> No_span
  | Some tr ->
      let id = tr.next_span in
      tr.next_span <- id + 1;
      emit tr { ts; cat; name; kind = Begin; track; id; args };
      Span { tracer = tr; id; cat; name; track }

(* A span under a caller-chosen id (the causal op id), so the Begin
   event is the root of the operation tree the analyzer reconstructs. *)
let span_with_id ?(track = "sim") ?(args = []) ~ts ~cat ~name ~id () =
  match current () with
  | None -> No_span
  | Some tr ->
      emit tr { ts; cat; name; kind = Begin; track; id; args };
      Span { tracer = tr; id; cat; name; track }

(* ends into the span's own tracer, so a span that outlives the
   install window still closes properly *)
let finish ?(args = []) ~ts sp =
  match sp with
  | No_span -> ()
  | Span s ->
      emit s.tracer
        { ts; cat = s.cat; name = s.name; kind = End; track = s.track;
          id = s.id; args }

(* Chrome flow events: a [flow_start] on the inducing operation's
   track and a [flow_end] on the induced work's track, both keyed by
   the inducing op id, make Perfetto draw an arrow from cause to
   effect (callbacks, recalls, invalidations). *)
let flow_start ?(track = "sim") ?(args = []) ~ts ~id () =
  match current () with
  | None -> ()
  | Some tr ->
      emit tr
        { ts; cat = "flow"; name = "induce"; kind = Flow_start; track; id; args }

let flow_end ?(track = "sim") ?(args = []) ~ts ~id () =
  match current () with
  | None -> ()
  | Some tr ->
      emit tr
        { ts; cat = "flow"; name = "induce"; kind = Flow_end; track; id; args }

let events t =
  if t.limit > 0 && t.live > t.limit then truncate t;
  List.rev t.events

let count t = t.count

let with_tracer t f =
  install t;
  Fun.protect ~finally:uninstall f
