(* Causal context: the identity of the client operation currently being
   served, threaded (never ambient) from the operation entry point
   through RPC calls, server handlers, disk and cache activity, and
   into induced work (callbacks, recalls, invalidations). The
   representation is a bare int so passing a context costs nothing:

     0   no context — tracing off, or background work (write-back
         daemons, laundromat, retransmission timers) that no single
         operation caused;
    >0   the operation id, which is also the id of the operation's
         root span in the trace. *)

type t = int

let none = 0

(* snfs-hot *)
let live c = c > 0

(* snfs-hot *)
let id c = c

(* snfs-hot *)
let of_id i = if i > 0 then i else none

(* Prepend the op tag to a span's argument list. Only called from
   sites already guarded by [Trace.on]. *)
let arg c args = if c > 0 then ("op", Trace.Int c) :: args else args

(* Run [f] as a root client operation: mint a context and, while
   tracing is on, wrap [f] in the operation's root span (cat "op",
   id = the op id). [now] supplies simulated time; it is only
   consulted when tracing is on. *)
let root ~now ~track ~name f =
  if not (Trace.on ()) then f none
  else
    let c = Trace.mint () in
    let sp =
      Trace.span_with_id ~ts:(now ()) ~cat:"op" ~name ~track ~id:c
        ~args:[ ("op", Trace.Int c) ]
        ()
    in
    match f c with
    | v ->
        Trace.finish ~ts:(now ()) sp;
        v
    | exception e ->
        Trace.finish ~ts:(now ()) sp ~args:[ ("error", Trace.Bool true) ];
        raise e
