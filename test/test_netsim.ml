(* Tests for the network model and RPC transport: round trips,
   timeouts, retransmission, duplicate suppression, callbacks (server
   calling client), thread pools, and crash behaviour. *)

open Harness

(* a program whose every procedure runs [handler] *)
let serve_all rpc host ~prog ~threads handler =
  Netsim.Rpc.serve rpc host ~prog ~threads ~unknown:handler []

let echo_handler ~caller:_ ~ctx:_ dec =
  let s = Xdr.Dec.string dec in
  let e = Xdr.Enc.create () in
  Xdr.Enc.string e ("echo:" ^ s);
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let setup e =
  let net = Netsim.Net.create e () in
  let rpc = Netsim.Rpc.create net () in
  let client = Netsim.Net.Host.create net "client" in
  let server = Netsim.Net.Host.create net "server" in
  (net, rpc, client, server)

let encode_string s =
  let e = Xdr.Enc.create () in
  Xdr.Enc.string e s;
  Xdr.Enc.to_bytes e

let test_basic_call () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      let _svc = serve_all rpc server ~prog:"echo" ~threads:2 echo_handler in
      let reply =
        Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"ping"
          (encode_string "hello")
      in
      let d = Xdr.Dec.of_bytes reply in
      Alcotest.(check string) "reply" "echo:hello" (Xdr.Dec.string d);
      Alcotest.(check bool) "took some time" true (Sim.Engine.now e > 0.0))

(* A request runs the first entry of the served table that names its
   procedure, or the fallback when none does; a host serves a program
   once. *)
let test_procedure_table () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      let answer s ~caller:_ ~ctx:_ _ =
        { Netsim.Rpc.data = encode_string s; bulk = 0 }
      in
      ignore
        (Netsim.Rpc.serve rpc server ~prog:"t" ~threads:2
           ~unknown:(answer "fallback")
           [ ("a", answer "first a"); ("b", answer "b"); ("a", answer "2nd a") ]);
      let call proc =
        Xdr.Dec.string
          (Xdr.Dec.of_bytes
             (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"t" ~proc
                Bytes.empty))
      in
      Alcotest.(check (list string))
        "replies" [ "first a"; "b"; "fallback" ]
        (List.map call [ "a"; "b"; "c" ]);
      Alcotest.check_raises "served twice"
        (Invalid_argument "Rpc.serve: t is already served on this host")
        (fun () ->
          ignore
            (Netsim.Rpc.serve rpc server ~prog:"t" ~threads:2
               ~unknown:(answer "") []
              : Netsim.Rpc.service)))

let test_call_counted () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      let svc = serve_all rpc server ~prog:"echo" ~threads:2 echo_handler in
      for _ = 1 to 5 do
        ignore
          (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"ping"
             (encode_string "x"))
      done;
      ignore
        (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"pong"
           (encode_string "y"));
      let c = Netsim.Rpc.counters svc in
      Alcotest.(check int) "ping count" 5 (Stats.Counter.get c "ping");
      Alcotest.(check int) "pong count" 1 (Stats.Counter.get c "pong"))

let test_timeout_no_server () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      (* no service registered: client must give up with Timeout *)
      match
        Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"none" ~proc:"x"
          (encode_string "q")
      with
      | _ -> Alcotest.fail "expected timeout"
      | exception Netsim.Rpc.Timeout { prog; proc } ->
          Alcotest.(check string) "prog" "none" prog;
          Alcotest.(check string) "proc" "x" proc;
          (* the full retry schedule must have elapsed *)
          Alcotest.(check bool) "waited" true (Sim.Engine.now e >= 31.0))

let test_retransmit_on_loss () =
  counted (fun total e ->
      let net, rpc, client, server = setup e in
      let svc = serve_all rpc server ~prog:"echo" ~threads:2 echo_handler in
      (* heavy loss: calls still succeed thanks to retransmission (the
         simulation is deterministic, so this never flakes) *)
      Netsim.Net.set_drop_probability net 0.25;
      for i = 1 to 10 do
        let reply =
          Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"ping"
            (encode_string (string_of_int i))
        in
        let d = Xdr.Dec.of_bytes reply in
        Alcotest.(check string)
          "reply correct despite loss"
          ("echo:" ^ string_of_int i)
          (Xdr.Dec.string d)
      done;
      Alcotest.(check bool) "some retransmissions happened" true
        (total "rpc_retransmits_total" > 0);
      (* duplicate suppression: executions never exceed logical calls *)
      Alcotest.(check int) "no duplicate execution" 10
        (Stats.Counter.get (Netsim.Rpc.counters svc) "ping"))

let test_duplicate_execution_suppressed () =
  run_sim (fun e ->
      let net, rpc, client, server = setup e in
      let executions = ref 0 in
      let slow_handler ~caller:_ ~ctx:_ _dec =
        incr executions;
        Sim.Engine.sleep e 3.0;
        (* longer than the first client timeout *)
        { Netsim.Rpc.data = encode_string "done"; bulk = 0 }
      in
      let _svc = serve_all rpc server ~prog:"slow" ~threads:2 slow_handler in
      ignore net;
      let reply =
        Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"slow" ~proc:"op"
          (encode_string "x")
      in
      let d = Xdr.Dec.of_bytes reply in
      Alcotest.(check string) "got reply" "done" (Xdr.Dec.string d);
      Alcotest.(check int) "executed once despite retries" 1 !executions)

(* ---- which reply a retransmission receives ---- *)

(* Called by a handler: the reply it is about to send is lost, and the
   link heals half a second later, before the client's first
   retransmission. *)
let lose_next_reply e net client server =
  Netsim.Net.partition net client server;
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep e 0.5;
      Netsim.Net.heal net client server)

(* The first reply is lost, so the reply the call returns is the one
   its retransmission got: the same bytes the one execution sent. *)
let test_replay_sends_served_reply () =
  run_sim (fun e ->
      let net, rpc, client, server = setup e in
      let sent = ref [] in
      let handler ~caller:_ ~ctx:_ _ =
        let data = encode_string "served" in
        sent := data :: !sent;
        lose_next_reply e net client server;
        { Netsim.Rpc.data; bulk = 0 }
      in
      ignore (serve_all rpc server ~prog:"p" ~threads:2 handler);
      let reply =
        Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"p" ~proc:"op"
          (encode_string "x")
      in
      Alcotest.(check bool) "answered a retransmission" true
        (Sim.Engine.now e > 1.0);
      match !sent with
      | [ data ] ->
          Alcotest.(check bool) "the bytes the execution sent" true
            (reply == data)
      | l -> Alcotest.failf "%d executions, expected 1" (List.length l))

(* A crash is not fail-stop: the execution that began before the
   reboot runs on, and the retransmission after the reboot executes
   again, since the reboot emptied the DRC. The second execution
   finishes first and the first publishes last, while the link is
   down, so the next retransmission is answered with the last
   published reply, the first execution's. *)
let test_replay_after_overtaken_execution () =
  run_sim (fun e ->
      let net, rpc, client, server = setup e in
      let executions = ref 0 in
      let handler ~caller:_ ~ctx:_ _ =
        incr executions;
        let n = !executions in
        Sim.Engine.sleep e (if n = 1 then 4.0 else 1.0);
        { Netsim.Rpc.data = encode_string ("run " ^ string_of_int n); bulk = 0 }
      in
      ignore (serve_all rpc server ~prog:"p" ~threads:2 handler);
      let at t f =
        Sim.Engine.spawn e (fun () ->
            Sim.Engine.sleep e (t -. Sim.Engine.now e);
            f ())
      in
      at 0.5 (fun () -> Netsim.Net.Host.crash server);
      at 0.6 (fun () -> Netsim.Net.Host.reboot server);
      at 1.5 (fun () -> Netsim.Net.partition net client server);
      at 6.0 (fun () -> Netsim.Net.heal net client server);
      let reply =
        Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"p" ~proc:"op"
          (encode_string "x")
      in
      Alcotest.(check int) "executed before and after the reboot" 2
        !executions;
      Alcotest.(check string) "the reply published last" "run 1"
        (Xdr.Dec.string (Xdr.Dec.of_bytes reply));
      Alcotest.(check bool) "answered after the heal" true
        (Sim.Engine.now e > 6.0))

(* Once a call has settled (returned, with no copy of its request or
   reply left in flight) nothing on the server keeps its reply: a weak
   pointer to the data its handler replied with empties at the next
   major collection, while the service, transport and engine live. *)
let settled_reply_is_collected ~lose_first () =
  let weak = Weak.create 1 in
  let world =
    run_sim (fun e ->
        let net, rpc, client, server = setup e in
        let handler ~caller:_ ~ctx:_ _ =
          let data = encode_string "served" in
          Weak.set weak 0 (Some data);
          if lose_first then lose_next_reply e net client server;
          { Netsim.Rpc.data; bulk = 0 }
        in
        let svc = serve_all rpc server ~prog:"p" ~threads:2 handler in
        ignore
          (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"p" ~proc:"op"
             (encode_string "x"));
        Sim.Engine.sleep e 60.0;
        (e, rpc, svc))
  in
  Gc.full_major ();
  let held = Weak.check weak 0 in
  ignore (Sys.opaque_identity world);
  Alcotest.(check bool) "reply data collected" false held

let test_server_calls_client_back () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      (* the client provides RPC service too, as SNFS requires *)
      let callback_received = ref false in
      let _client_svc =
        serve_all rpc client ~prog:"cb" ~threads:2
          (fun ~caller:_ ~ctx:_ _dec ->
            callback_received := true;
            { Netsim.Rpc.data = encode_string "ok"; bulk = 0 })
      in
      let _server_svc =
        serve_all rpc server ~prog:"main" ~threads:2
          (fun ~caller ~ctx:_ _dec ->
            (* server calls the client back before replying *)
            let r =
              Netsim.Rpc.call rpc ~src:server ~dst:caller ~prog:"cb"
                ~proc:"invalidate" (encode_string "file-7")
            in
            let d = Xdr.Dec.of_bytes r in
            Alcotest.(check string) "callback reply" "ok" (Xdr.Dec.string d);
            { Netsim.Rpc.data = encode_string "opened"; bulk = 0 })
      in
      let reply =
        Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"main" ~proc:"open"
          (encode_string "file-7")
      in
      let d = Xdr.Dec.of_bytes reply in
      Alcotest.(check string) "final reply" "opened" (Xdr.Dec.string d);
      Alcotest.(check bool) "callback ran" true !callback_received)

let test_thread_pool_bound () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      let active = ref 0 in
      let max_active = ref 0 in
      let handler ~caller:_ ~ctx:_ _dec =
        incr active;
        max_active := max !max_active !active;
        Sim.Engine.sleep e 0.5;
        decr active;
        { Netsim.Rpc.data = encode_string "ok"; bulk = 0 }
      in
      let _svc = serve_all rpc server ~prog:"pool" ~threads:3 handler in
      let done_count = ref 0 in
      for _ = 1 to 10 do
        Sim.Engine.spawn e (fun () ->
            ignore
              (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"pool"
                 ~proc:"op" (encode_string "x"));
            incr done_count)
      done;
      Sim.Engine.sleep e 30.0;
      Alcotest.(check int) "all completed" 10 !done_count;
      Alcotest.(check int) "pool bound respected" 3 !max_active)

(* Six calls at once to a two-thread service: the four that find both
   threads busy wait in the backlog, and each thread takes the next one
   when it finishes. Each handler runs 1.5 s, longer than the first
   retransmission timeout, so every waiting call is retransmitted while
   it waits. *)
let backlog_run () =
  let tr = Obs.Trace.create () in
  let started = ref [] and active = ref 0 and most = ref 0 in
  let events =
    Obs.Trace.with_tracer tr (fun () ->
        run_sim (fun e ->
            let _, rpc, client, server = setup e in
            let handler ~caller:_ ~ctx:_ dec =
              started := Xdr.Dec.string dec :: !started;
              incr active;
              most := max !most !active;
              Sim.Engine.sleep e 1.5;
              decr active;
              { Netsim.Rpc.data = encode_string "ok"; bulk = 0 }
            in
            ignore (serve_all rpc server ~prog:"pool" ~threads:2 handler);
            for i = 1 to 6 do
              Sim.Engine.spawn e (fun () ->
                  ignore
                    (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"pool"
                       ~proc:"op" (encode_string (string_of_int i))))
            done;
            Sim.Engine.sleep e 30.0;
            Sim.Engine.events_executed e))
  in
  (List.rev !started, !most, events, Obs.Trace.events tr)

let test_thread_backlog () =
  let started, most, events, trace = backlog_run () in
  Alcotest.(check (list string))
    "each call executes once, in arrival order"
    [ "1"; "2"; "3"; "4"; "5"; "6" ]
    started;
  Alcotest.(check int) "never more than the threads" 2 most;
  (* a process per request would add one start event for each of the
     four calls that waited *)
  Alcotest.(check int) "no process for a waiting call" 78 events;
  let int_arg k (ev : Obs.Trace.event) =
    match List.assoc_opt k ev.args with
    | Some (Obs.Trace.Int n) -> n
    | _ -> Alcotest.failf "%s without %s" ev.name k
  in
  let float_arg k (ev : Obs.Trace.event) =
    match List.assoc_opt k ev.args with
    | Some (Obs.Trace.Float x) -> x
    | _ -> Alcotest.failf "%s without %s" ev.name k
  in
  let execs =
    List.filter
      (fun (ev : Obs.Trace.event) ->
        ev.kind = Obs.Trace.Begin && ev.name = "exec pool.op")
      trace
  in
  let drops =
    List.filter (fun (ev : Obs.Trace.event) -> ev.name = "dup_drop") trace
  in
  Alcotest.(check int) "six executions" 6 (List.length execs);
  List.iteri
    (fun i exec ->
      let xid = int_arg "xid" exec and queued = float_arg "queued" exec in
      let arrived = exec.Obs.Trace.ts -. queued in
      let dropped_while_waiting =
        List.filter
          (fun (d : Obs.Trace.event) ->
            int_arg "xid" d = xid && d.ts <= exec.Obs.Trace.ts)
          drops
      in
      if i < 2 then Alcotest.(check (float 0.0)) "a thread was idle" 0.0 queued
      else begin
        Alcotest.(check bool) "retransmitted while it waited" true
          (dropped_while_waiting <> []);
        List.iter
          (fun (d : Obs.Trace.event) ->
            if not (arrived < d.ts) then
              Alcotest.failf
                "xid %d: queued %g runs from %g, not before the \
                 retransmission at %g"
                xid queued arrived d.ts)
          dropped_while_waiting
      end)
    execs

(* A thread that takes a waiting request is named after it, so a
   handler that fails while serving it names its own procedure. *)
let test_backlog_failure_names_request () =
  let e = Sim.Engine.create () in
  let _, rpc, client, server = setup e in
  let handler ~caller:_ ~ctx:_ _ =
    Sim.Engine.sleep e 0.5;
    { Netsim.Rpc.data = encode_string "ok"; bulk = 0 }
  in
  ignore
    (Netsim.Rpc.serve rpc server ~prog:"pool" ~threads:1 ~unknown:handler
       [ ("boom", fun ~caller:_ ~ctx:_ _ -> failwith "boom") ]);
  List.iter
    (fun proc ->
      Sim.Engine.spawn e (fun () ->
          ignore
            (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"pool" ~proc
               (encode_string "x"))))
    [ "ok"; "boom" ];
  match Sim.Engine.run e with
  | () -> Alcotest.fail "the failing handler should abort the run"
  | exception Sim.Engine.Process_failure (name, _, _) ->
      Alcotest.(check string) "names the request it served" "pool.boom" name

let test_crashed_server_times_out () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      let _svc = serve_all rpc server ~prog:"echo" ~threads:2 echo_handler in
      Netsim.Net.Host.crash server;
      (match
         Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"ping"
           (encode_string "x")
       with
      | _ -> Alcotest.fail "expected timeout"
      | exception Netsim.Rpc.Timeout _ -> ());
      (* after reboot the server answers again *)
      Netsim.Net.Host.reboot server;
      let reply =
        Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"ping"
          (encode_string "back")
      in
      let d = Xdr.Dec.of_bytes reply in
      Alcotest.(check string) "after reboot" "echo:back" (Xdr.Dec.string d))

let test_restart_hook_fires () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      let svc = serve_all rpc server ~prog:"echo" ~threads:2 echo_handler in
      let restarted = ref 0 in
      Netsim.Rpc.set_on_restart svc (fun () -> incr restarted);
      ignore
        (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"a"
           (encode_string "1"));
      Alcotest.(check int) "no restart yet" 0 !restarted;
      Netsim.Net.Host.crash server;
      Netsim.Net.Host.reboot server;
      ignore
        (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"b"
           (encode_string "2"));
      Alcotest.(check int) "restart observed" 1 !restarted)

let test_bigger_messages_slower () =
  let time_for bulk =
    run_sim (fun e ->
        let _, rpc, client, server = setup e in
        let _svc =
          serve_all rpc server ~prog:"x" ~threads:2
            (fun ~caller:_ ~ctx:_ _ ->
              { Netsim.Rpc.data = Bytes.create 16; bulk = 0 })
        in
        ignore
          (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"x" ~proc:"w"
             ~bulk (Bytes.create 32));
        Sim.Engine.now e)
  in
  let small = time_for 0 in
  let big = time_for 8192 in
  Alcotest.(check bool)
    (Printf.sprintf "8k write slower than empty (%.6f vs %.6f)" big small)
    true (big > small +. 0.004)

let test_host_utilization_accrues () =
  run_sim (fun e ->
      let _, rpc, client, server = setup e in
      let _svc = serve_all rpc server ~prog:"echo" ~threads:2 echo_handler in
      for _ = 1 to 20 do
        ignore
          (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"p"
             (encode_string "data"))
      done;
      let busy = Sim.Resource.busy_time (Netsim.Net.Host.cpu server) in
      Alcotest.(check bool) "server cpu charged" true (busy > 0.0))

let test_partition_and_heal () =
  run_sim (fun e ->
      let net, rpc, client, server = setup e in
      let _svc = serve_all rpc server ~prog:"echo" ~threads:2 echo_handler in
      (* does a message from client to server arrive within a second? *)
      let delivered () =
        let got = ref false in
        Netsim.Net.send net ~src:client ~dst:server ~bytes:64 ~deliver:(fun () ->
            got := true);
        Sim.Engine.sleep e 1.0;
        !got
      in
      Netsim.Net.partition net client server;
      Alcotest.(check bool) "partitioned" false (delivered ());
      (match
         Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"p"
           (encode_string "x")
       with
      | _ -> Alcotest.fail "expected timeout across partition"
      | exception Netsim.Rpc.Timeout _ -> ());
      Netsim.Net.heal net client server;
      Alcotest.(check bool) "healed" true (delivered ());
      let reply =
        Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"echo" ~proc:"p"
          (encode_string "again")
      in
      let d = Xdr.Dec.of_bytes reply in
      Alcotest.(check string) "works after heal" "echo:again" (Xdr.Dec.string d))

let test_partition_is_directional_pairwise () =
  run_sim (fun e ->
      let net, rpc, client, server = setup e in
      let third = Netsim.Net.Host.create net "third" in
      let _svc = serve_all rpc server ~prog:"echo" ~threads:2 echo_handler in
      Netsim.Net.partition net client server;
      (* an unrelated host still reaches the server *)
      let reply =
        Netsim.Rpc.call rpc ~src:third ~dst:server ~prog:"echo" ~proc:"p"
          (encode_string "ok")
      in
      let d = Xdr.Dec.of_bytes reply in
      Alcotest.(check string) "third unaffected" "echo:ok" (Xdr.Dec.string d))

(* ---- the duplicate-request cache against the fixed table ---- *)

(* What [Netsim.Drc] must behave as: 4,096 slots indexed by [xid land
   4095], a new xid evicting its slot's entry. [occupied] lists the
   slots in use, so the model can look for collisions without a scan.
   Which reply a [Replay] sends is the call record's business, checked
   by the reply-identity tests above. *)
module Fixed = struct
  let slots = 4096

  type t = {
    xids : int array;
    finished : bool array;
    mutable occupied : int list;
  }

  let create () =
    {
      xids = Array.make slots (-1);
      finished = Array.make slots false;
      occupied = [];
    }

  let used t = List.length t.occupied

  let arrive t xid : Netsim.Drc.decision =
    let i = xid land (slots - 1) in
    if t.xids.(i) = xid then if t.finished.(i) then Replay else Drop
    else begin
      if t.xids.(i) = -1 then t.occupied <- i :: t.occupied;
      t.xids.(i) <- xid;
      t.finished.(i) <- false;
      Execute
    end

  let publish t xid =
    let i = xid land (slots - 1) in
    if t.xids.(i) = xid then t.finished.(i) <- true

  let reset t =
    Array.fill t.xids 0 slots (-1);
    Array.fill t.finished 0 slots false;
    t.occupied <- []

  (* a live entry other than [xid] on [xid]'s slot of a table of [size]
     slots, though its residue differs: the one reason to grow *)
  let false_collision t xid ~size =
    List.exists
      (fun i ->
        let y = t.xids.(i) in
        y land (size - 1) = xid land (size - 1) && i <> xid land (slots - 1))
      t.occupied
end

type drc_op =
  | Fresh of int  (** the next xid, after [n] that other services took *)
  | Retransmit of int  (** the [i]th xid seen so far, again *)
  | Congruent of int * int  (** the [i]th xid seen plus [k] * 4096 *)
  | Complete of int  (** the [i]th executing call finishes *)
  | Reset  (** the server reboots *)

let show_drc_op = function
  | Fresh n -> Printf.sprintf "fresh+%d" n
  | Retransmit i -> Printf.sprintf "again %d" i
  | Congruent (i, k) -> Printf.sprintf "congruent %d%+d" i k
  | Complete i -> Printf.sprintf "complete %d" i
  | Reset -> "reset"

let gen_drc_ops =
  let open QCheck.Gen in
  (* small gaps keep the table small; large ones spread the residues *)
  let gap = frequency [ (3, int_bound 3); (2, int_bound 5000) ] in
  list_size (int_range 1 300)
    (frequency
       [
         (10, map (fun n -> Fresh n) gap);
         (5, map (fun i -> Retransmit i) nat);
         (3, map2 (fun i k -> Congruent (i, k)) nat (int_range (-2) 2));
         (7, map (fun i -> Complete i) nat);
         (1, return Reset);
       ])

(* After every step the cache made the fixed table's decision and holds
   its entry count; and it holds exactly the slots the doublings its
   false collisions forced, measured in heap words against an empty
   cache and a one-slot one. *)
let prop_drc_matches_fixed_table =
  let words d = Obj.reachable_words (Obj.repr d) in
  let empty_words = words (Netsim.Drc.create ()) in
  let one_slot_words =
    let d = Netsim.Drc.create () in
    ignore (Netsim.Drc.arrive d 1 : Netsim.Drc.decision);
    words d
  in
  QCheck.Test.make ~name:"DRC matches the fixed 4096-slot table" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_drc_op ops))
       gen_drc_ops)
    (fun ops ->
      let drc = Netsim.Drc.create () and fixed = Fixed.create () in
      let size = ref 0 and counter = ref 0 in
      let seen = ref [||] and running = ref [] in
      let rec remove_one x = function
        | [] -> []
        | y :: rest -> if y = x then rest else y :: remove_one x rest
      in
      let arrive xid =
        let expected = Fixed.arrive fixed xid in
        if expected = Execute then begin
          size := Int.max 1 !size;
          while Fixed.false_collision fixed xid ~size:!size do
            size := 2 * !size
          done;
          running := xid :: !running
        end;
        Netsim.Drc.arrive drc xid = expected
      in
      let step op =
        match op with
        | Fresh n ->
            counter := !counter + 1 + n;
            seen := Array.append !seen [| !counter |];
            arrive !counter
        | Retransmit i when !seen <> [||] ->
            arrive !seen.(i mod Array.length !seen)
        | Congruent (i, k) when !seen <> [||] ->
            let xid = !seen.(i mod Array.length !seen) + (k * Fixed.slots) in
            xid < 1 || arrive xid
        | Complete i when !running <> [] ->
            let xid = List.nth !running (i mod List.length !running) in
            running := remove_one xid !running;
            Fixed.publish fixed xid;
            Netsim.Drc.publish drc xid;
            true
        | Reset ->
            Fixed.reset fixed;
            Netsim.Drc.reset drc;
            size := 0;
            true
        | Retransmit _ | Congruent _ | Complete _ -> true
      in
      List.iteri
        (fun n op ->
          let fail fmt =
            QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) n (show_drc_op op)
          in
          if not (step op) then fail "decision differs";
          if Netsim.Drc.length drc <> Fixed.used fixed then
            fail "%d entries, expected %d" (Netsim.Drc.length drc)
              (Fixed.used fixed);
          let expected =
            if !size = 0 then empty_words
            else one_slot_words + (2 * (!size - 1))
          in
          if words drc <> expected then
            fail "%d words, expected %d (%d slots)" (words drc) expected !size)
        ops;
      true)

(* ---- network order ---- *)

(* A schedule of network operations, each at a whole millisecond, on
   three hosts. Sizes reach a few ms of transmission at the default
   bandwidth, so the medium queues messages behind one another. *)
type net_op =
  | Send of int * int * int  (** src, dst, payload bytes *)
  | Crash of int
  | Reboot of int
  | Cut of int * int  (** [Net.partition] *)
  | Heal of int * int

let show_net_op (ms, op) =
  match op with
  | Send (a, b, n) -> Printf.sprintf "%dms send %d->%d %dB" ms a b n
  | Crash h -> Printf.sprintf "%dms crash %d" ms h
  | Reboot h -> Printf.sprintf "%dms reboot %d" ms h
  | Cut (a, b) -> Printf.sprintf "%dms cut %d-%d" ms a b
  | Heal (a, b) -> Printf.sprintf "%dms heal %d-%d" ms a b

let net_hosts = 3

let gen_net_ops =
  let open QCheck.Gen in
  let host = int_bound (net_hosts - 1) in
  list_size (int_range 1 60)
    (pair (int_bound 40)
       (frequency
          [
            (12, map3 (fun a b n -> Send (a, b, n)) host host (int_bound 4000));
            (2, map (fun h -> Crash h) host);
            (2, map (fun h -> Reboot h) host);
            (1, map2 (fun a b -> Cut (a, b)) host host);
            (1, map2 (fun a b -> Heal (a, b)) host host);
          ]))

(* Every op is queued before the run, in list order, so ops at one
   instant run in that order and before any delivery queued during the
   run at the same instant. The model replays them in the same order:
   a send from a live host reserves the medium after the previous
   message (start at the later of now and the medium's reserved end,
   then the wire time), and the message arrives at that finish plus
   the latency; it is delivered if no partition cut the pair at send
   and the destination is up once every op at or before its arrival
   has run. The property checks the deliveries (which, at what clock,
   in what order, to a live host) and that each send counts its
   message and wire bytes at once. *)
let prop_network_order =
  QCheck.Test.make ~name:"deliveries at reserved finish + latency, FIFO"
    ~count:300 ~long_factor:20
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_net_op ops))
       gen_net_ops)
    (fun ops ->
      let params =
        {
          Netsim.Net.latency = 0.0003;
          bandwidth = 1.25e6;
          header_bytes = 64;
          jitter = 0.0;
        }
      in
      let ops =
        List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) ops
      in
      let time ms = float_of_int ms *. 0.001 in
      (* the model *)
      let up = Array.make net_hosts true and cut = ref [] in
      let pair a b = (Int.min a b, Int.max a b) in
      let reserved = ref 0.0 and expected = ref [] and id = ref 0 in
      let history = ref [] in
      List.iter
        (fun (ms, op) ->
          let now = time ms in
          match op with
          | Send (a, b, n) ->
              let i = !id in
              incr id;
              if up.(a) then begin
                let wire = n + params.header_bytes in
                let start = if !reserved > now then !reserved else now in
                reserved := start +. (float_of_int wire /. params.bandwidth);
                let arrival = !reserved +. params.latency in
                if not (List.mem (pair a b) !cut) then
                  expected := (i, b, arrival) :: !expected
              end
          | Crash h ->
              up.(h) <- false;
              history := (now, h, false) :: !history
          | Reboot h ->
              up.(h) <- true;
              history := (now, h, true) :: !history
          | Cut (a, b) ->
              if not (List.mem (pair a b) !cut) then cut := pair a b :: !cut
          | Heal (a, b) ->
              cut := List.filter (fun p -> p <> pair a b) !cut)
        ops;
      let up_at h t =
        List.fold_left
          (fun acc (when_, h', state) ->
            if h' = h && when_ <= t then state else acc)
          true (List.rev !history)
      in
      let expected =
        List.rev !expected
        |> List.filter (fun (_, b, arrival) -> up_at b arrival)
      in
      (* the network *)
      let m = Obs.Metrics.create () in
      let total name =
        List.fold_left (fun a (_, n) -> a + n) 0
          (Obs.Metrics.counters_with m name)
      in
      let e = Sim.Engine.create () in
      let delivered = ref [] and miscounted = ref [] in
      Obs.Metrics.with_metrics m (fun () ->
          let net = Netsim.Net.create e ~params () in
          let hosts =
            Array.init net_hosts (fun i ->
                Netsim.Net.Host.create net (string_of_int i))
          in
          let next = ref 0 and live = Array.make net_hosts true in
          List.iter
            (fun (ms, op) ->
              let run =
                match op with
                | Send (a, b, n) ->
                    let i = !next in
                    incr next;
                    fun () ->
                      let msgs = total "net_messages_total"
                      and bytes = total "net_bytes_total" in
                      let sent = live.(a) in
                      Netsim.Net.send net ~src:hosts.(a) ~dst:hosts.(b) ~bytes:n
                        ~deliver:(fun () ->
                          delivered :=
                            (i, b, Sim.Engine.now e, live.(b))
                            :: !delivered);
                      let wire = if sent then n + params.header_bytes else 0 in
                      if total "net_messages_total" - msgs <> Bool.to_int sent
                         || total "net_bytes_total" - bytes <> wire
                      then miscounted := i :: !miscounted
                | Crash h ->
                    fun () ->
                      live.(h) <- false;
                      Netsim.Net.Host.crash hosts.(h)
                | Reboot h ->
                    fun () ->
                      live.(h) <- true;
                      Netsim.Net.Host.reboot hosts.(h)
                | Cut (a, b) ->
                    fun () -> Netsim.Net.partition net hosts.(a) hosts.(b)
                | Heal (a, b) ->
                    fun () -> Netsim.Net.heal net hosts.(a) hosts.(b)
              in
              Sim.Engine.at e (time ms) run)
            ops;
          Sim.Engine.run e);
      let delivered = List.rev !delivered in
      let show l =
        String.concat " "
          (List.map (fun (i, b, t) -> Printf.sprintf "%d->%d@%.9g" i b t) l)
      in
      if !miscounted <> [] then
        QCheck.Test.fail_reportf "sends %s miscounted"
          (String.concat "," (List.rev_map string_of_int !miscounted));
      if List.exists (fun (_, _, _, live) -> not live) delivered then
        QCheck.Test.fail_report "a message was delivered to a down host";
      let got = List.map (fun (i, b, t, _) -> (i, b, t)) delivered in
      if got <> expected then
        QCheck.Test.fail_reportf "delivered %s\nexpected %s" (show got)
          (show expected);
      true)

let () =
  Alcotest.run "netsim"
    [
      ( "rpc",
        [
          Alcotest.test_case "basic call" `Quick test_basic_call;
          Alcotest.test_case "procedure table" `Quick test_procedure_table;
          Alcotest.test_case "calls counted" `Quick test_call_counted;
          Alcotest.test_case "timeout" `Quick test_timeout_no_server;
          Alcotest.test_case "retransmit on loss" `Quick test_retransmit_on_loss;
          Alcotest.test_case "duplicate suppressed" `Quick
            test_duplicate_execution_suppressed;
          Alcotest.test_case "replay sends the served reply" `Quick
            test_replay_sends_served_reply;
          Alcotest.test_case "replay after an overtaken execution" `Quick
            test_replay_after_overtaken_execution;
          Alcotest.test_case "settled reply is collected" `Quick
            (settled_reply_is_collected ~lose_first:false);
          Alcotest.test_case "settled reply is collected, first reply lost"
            `Quick
            (settled_reply_is_collected ~lose_first:true);
          Alcotest.test_case "server->client callback" `Quick
            test_server_calls_client_back;
          Alcotest.test_case "thread pool bound" `Quick test_thread_pool_bound;
          Alcotest.test_case "thread backlog" `Quick test_thread_backlog;
          Alcotest.test_case "backlog failure names its request" `Quick
            test_backlog_failure_names_request;
          Alcotest.test_case "crashed server" `Quick test_crashed_server_times_out;
          Alcotest.test_case "restart hook" `Quick test_restart_hook_fires;
          Alcotest.test_case "message size matters" `Quick
            test_bigger_messages_slower;
          Alcotest.test_case "cpu utilization" `Quick
            test_host_utilization_accrues;
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "partition pairwise" `Quick
            test_partition_is_directional_pairwise;
        ] );
      ( "duplicate-request cache",
        [ QCheck_alcotest.to_alcotest prop_drc_matches_fixed_table ] );
      ( "network order",
        [ QCheck_alcotest.to_alcotest prop_network_order ] );
    ]
