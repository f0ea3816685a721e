(* Flight recorder: a bounded ring of the most recent trace events,
   kept cheaply during runs that do not want a full trace, and
   snapshotted when an oracle or invariant fails so the failure ships
   with the evidence needed to understand it.

   Arming installs a ring-limited tracer (Trace.create ~limit) into
   the ordinary per-domain tracer slot, so every existing probe site
   feeds the ring with no new code. [capture] is pure bookkeeping — it
   snapshots the ring into a per-domain slot; dumping to disk is the
   harness's job (bin/, tests), keeping the library free of I/O. *)

type snapshot = { reason : string; json : string }

type state = { tracer : Trace.t; mutable last : snapshot option }

let slot : state option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* ring size: the newest events a post-mortem sees *)
let limit = 4096

let arm () =
  match Domain.DLS.get slot with
  | Some _ -> ()
  | None -> (
      match Trace.current () with
      | Some _ ->
          (* a real tracer is already recording everything; the ring
             would only steal its events *)
          ()
      | None ->
          let tracer = Trace.create ~limit () in
          Trace.install tracer;
          Domain.DLS.set slot (Some { tracer; last = None }))

let disarm () =
  match Domain.DLS.get slot with
  | None -> ()
  | Some st ->
      (* only uninstall the tracer we installed *)
      (match Trace.current () with
      | Some t when t == st.tracer -> Trace.uninstall ()
      | Some _ | None -> ());
      Domain.DLS.set slot None

let capture ~reason =
  match Domain.DLS.get slot with
  | None -> ()
  | Some st ->
      st.last <- Some { reason; json = Chrome.to_string st.tracer }

let last () =
  match Domain.DLS.get slot with
  | None -> None
  | Some st -> (
      match st.last with None -> None | Some s -> Some (s.reason, s.json))
