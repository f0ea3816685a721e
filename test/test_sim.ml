(* Tests for the discrete-event engine and its synchronization
   primitives. *)

open Harness

(* ---- event queue ---- *)

let test_eventq_order () =
  let q = Sim.Eventq.create () in
  let out = ref [] in
  let ev tag () = out := tag :: !out in
  Sim.Eventq.push q ~time:3.0 ~seq:0 (ev "c");
  Sim.Eventq.push q ~time:1.0 ~seq:1 (ev "a");
  Sim.Eventq.push q ~time:2.0 ~seq:2 (ev "b");
  while not (Sim.Eventq.is_empty q) do
    Sim.Eventq.pop_fn q ()
  done;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !out)

let test_eventq_ties () =
  let q = Sim.Eventq.create () in
  let out = ref [] in
  for i = 0 to 9 do
    Sim.Eventq.push q ~time:5.0 ~seq:i (fun () -> out := i :: !out)
  done;
  while not (Sim.Eventq.is_empty q) do
    Sim.Eventq.pop_fn q ()
  done;
  Alcotest.(check (list int))
    "seq breaks ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

let test_eventq_empty () =
  let q = Sim.Eventq.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Sim.Eventq.pop_fn q : unit -> unit))

let prop_eventq_sorted =
  QCheck.Test.make ~name:"eventq pops in nondecreasing time order"
    ~count:200
    QCheck.(list (pair (float_range 0.0 1000.0) small_nat))
    (fun items ->
      let q = Sim.Eventq.create () in
      List.iteri
        (fun seq (time, _) -> Sim.Eventq.push q ~time ~seq (fun () -> ()))
        items;
      let times = ref [] in
      while not (Sim.Eventq.is_empty q) do
        times := Sim.Eventq.min_time q :: !times;
        ignore (Sim.Eventq.pop_fn q : unit -> unit)
      done;
      let popped = List.rev !times in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      sorted popped && List.length popped = List.length items)

(* ---- engine ---- *)

let test_clock_advances () =
  let final =
    run_sim (fun e ->
        Alcotest.(check (float 1e-9)) "starts at zero" 0.0 (Sim.Engine.now e);
        Sim.Engine.sleep e 1.5;
        Alcotest.(check (float 1e-9)) "after sleep" 1.5 (Sim.Engine.now e);
        Sim.Engine.sleep e 0.5;
        Sim.Engine.now e)
  in
  Alcotest.(check (float 1e-9)) "final time" 2.0 final

let test_spawn_interleaving () =
  let order =
    run_sim (fun e ->
        let out = ref [] in
        let note tag = out := tag :: !out in
        Sim.Engine.spawn e (fun () ->
            note "a0";
            Sim.Engine.sleep e 2.0;
            note "a2");
        Sim.Engine.spawn e (fun () ->
            note "b0";
            Sim.Engine.sleep e 1.0;
            note "b1");
        Sim.Engine.sleep e 3.0;
        List.rev !out)
  in
  Alcotest.(check (list string)) "interleaving" [ "a0"; "b0"; "b1"; "a2" ] order

let test_at_past_rejected () =
  run_sim (fun e ->
      Sim.Engine.sleep e 1.0;
      Alcotest.check_raises "past scheduling"
        (Invalid_argument "Engine.at: time 0.5 is before now 1") (fun () ->
          Sim.Engine.at e 0.5 (fun () -> ())))

(* A [run] that an event's [stop] ends early leaves the clock at that
   event: a later event is still queued, and the clock must not pass
   it. *)
let test_run_stopped () =
  let e = Sim.Engine.create () in
  let ran_at = ref nan in
  Sim.Engine.at e 1.0 (fun () -> Sim.Engine.stop e);
  Sim.Engine.at e 2.0 (fun () -> ran_at := Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (float 0.0)) "clock at the stop" 1.0 (Sim.Engine.now e);
  Sim.Engine.at e 2.5 (fun () -> ());
  Sim.Engine.run e;
  Alcotest.(check (float 0.0)) "queued event at its time" 2.0 !ran_at

let test_process_exception_propagates () =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e ~name:"boom" (fun () -> failwith "expected");
  match Sim.Engine.run e with
  | () -> Alcotest.fail "exception should propagate"
  | exception _ -> ()

(* ---- process fibers ---- *)

(* The (time, tag) trace of two processes: one spawned at t = 1, and
   an [after 0.0] event scheduled right behind its start. With
   [warm_up] a first process has already run and returned, so the
   second spawn resumes its parked fiber instead of making one. *)
let spawn_trace ~warm_up =
  let e = Sim.Engine.create () in
  let out = ref [] in
  let note tag = out := (Sim.Engine.now e, tag) :: !out in
  if warm_up then Sim.Engine.spawn e ~name:"first" (fun () -> note "first");
  Sim.Engine.at e 1.0 (fun () ->
      Sim.Engine.spawn e ~name:"second" (fun () ->
          note "second";
          Sim.Engine.sleep e 0.5;
          note "second woke");
      Sim.Engine.after e 0.0 (fun () -> note "event"));
  Sim.Engine.run e;
  List.filter (fun (_, tag) -> tag <> "first") (List.rev !out)

let test_reused_fiber_schedule () =
  Alcotest.(check (list (pair (float 0.0) string)))
    "same instants and order as a fresh fiber"
    (spawn_trace ~warm_up:false) (spawn_trace ~warm_up:true)

let test_reused_fiber_failure_names_job () =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e ~name:"first" (fun () -> ());
  Sim.Engine.at e 1.0 (fun () ->
      Sim.Engine.spawn e ~name:"second" (fun () -> failwith "boom"));
  match Sim.Engine.run e with
  | () -> Alcotest.fail "exception should propagate"
  | exception exn ->
      Alcotest.(check string)
        "names the failing job" {|process "second" failed with Failure("boom")|}
        (Printexc.to_string exn)

let test_run_after_retire () =
  let e = Sim.Engine.create () in
  let ran = ref [] in
  let job tag () =
    Sim.Engine.sleep e 1.0;
    ran := (tag, Sim.Engine.now e) :: !ran
  in
  Sim.Engine.spawn e (job "a");
  Sim.Engine.spawn e (job "b");
  Sim.Engine.run e;
  (* both fibers parked, then retired when run returned *)
  Sim.Engine.spawn e (job "c");
  Sim.Engine.spawn e (job "d");
  Sim.Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "second run" [ ("a", 1.0); ("b", 1.0); ("c", 2.0); ("d", 2.0) ]
    (List.rev !ran);
  Alcotest.(check int) "events" 8 (Sim.Engine.events_executed e)

(* More processes finish at once than the engine keeps fibers parked:
   the surplus fibers end, and a second wave still runs on time. *)
let test_many_finished_processes () =
  let e = Sim.Engine.create () in
  let woke = ref [] in
  let wave start =
    for i = 0 to 199 do
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.sleep e 1.0;
          woke := (start + i, Sim.Engine.now e) :: !woke)
    done
  in
  wave 0;
  Sim.Engine.at e 2.0 (fun () -> wave 200);
  Sim.Engine.run e;
  Alcotest.(check (list (pair int (float 0.0))))
    "both waves in spawn order"
    (List.init 400 (fun i -> (i, if i < 200 then 1.0 else 3.0)))
    (List.rev !woke)

(* ---- dispatch order against a one-list reference ---- *)

(* A random program of scheduling calls. Each event, when it fires,
   runs its children. A [Proc] process runs its steps in order: [Nap]
   sleeps, [Wait] suspends until the next [After] event or a [Wake]
   step resumes it, [Wake] resumes the longest-waiting [Wait] (if any)
   and goes on, [Tail_wait] suspends with [Engine.suspend_tail] until
   the next [After], [At] or [Timer] event resumes it as the last thing
   that event does, and [Do] runs an op. [Stop] calls [Engine.stop],
   and the runner then runs the engine again. *)
type op =
  | After of float * op list
  | At of float * op list (* at [now + d], computed by the caller *)
  | Timer of float * op list
  | Proc of step list
  | Stop

and step = Nap of float | Wait | Tail_wait | Wake | Do of op

let rec show_op = function
  | After (d, k) -> Printf.sprintf "after %g %s" d (show_ops k)
  | At (d, k) -> Printf.sprintf "at +%g %s" d (show_ops k)
  | Timer (d, k) -> Printf.sprintf "timer %g %s" d (show_ops k)
  | Proc steps ->
      "proc [" ^ String.concat "; " (List.map show_step steps) ^ "]"
  | Stop -> "stop"

and show_step = function
  | Nap d -> Printf.sprintf "nap %g" d
  | Wait -> "wait"
  | Tail_wait -> "tail wait"
  | Wake -> "wake"
  | Do op -> show_op op

and show_ops ops = "[" ^ String.concat "; " (List.map show_op ops) ^ "]"

let gen_program timer_delays =
  let open QCheck.Gen in
  (* multiples of 0.5, zero included, so equal-time ties are common *)
  let step = map (fun k -> 0.5 *. float_of_int k) (int_bound 4) in
  let rec op depth =
    let kids =
      if depth = 0 then return [] else list_size (int_bound 3) (op (depth - 1))
    in
    let steps =
      let run_op =
        if depth = 0 then [] else [ (2, map (fun o -> Do o) (op (depth - 1))) ]
      in
      frequency
        ([
           (3, map (fun d -> Nap d) step);
           (1, return Wait);
           (1, return Tail_wait);
           (1, return Wake);
         ]
        @ run_op)
    in
    frequency
      [
        (3, map2 (fun d k -> After (d, k)) step kids);
        (2, map2 (fun d k -> At (d, k)) step kids);
        (3, map2 (fun d k -> Timer (d, k)) (oneofl timer_delays) kids);
        (2, map (fun s -> Proc s) (list_size (int_bound 4) steps));
        (1, return Stop);
      ]
  in
  list_size (int_range 1 8) (op 3)

(* A dispatched event's key and the clock it ran at, or a return from
   a run that a [Stop] cut short. *)
type entry = Ev of int * float | Halt

(* Runs [prog] on an engine with [run], again for as long as a [Stop]
   cuts it short. Every engine call that queues an event is mirrored
   by one [key] call, which numbers the event as the engine's own
   sequence counter does.
   The mirror keeps its own clock: each op and step gets the time of
   the event that runs it, and a resumed [Wait] the time its resumer
   passes, so an engine clock that moves while an event still has work
   to do shows in the trace: a [Tail_wait] resumed before its resumer's
   last action, whose process then sleeps in place, fails here.
   Returns the dispatch trace, the keys of every queued event, the keys
   of the events that called [Stop], and the engine's event count. *)
let run_program prog =
  let e = Sim.Engine.create () in
  let next_seq = ref 0 and keys = ref [] and trace = ref [] in
  let key time =
    let s = !next_seq in
    incr next_seq;
    keys := (time, s) :: !keys;
    s
  in
  let current = ref (-1) and halts = ref [] and halted = ref false in
  let fired s =
    current := s;
    trace := Ev (s, Sim.Engine.now e) :: !trace
  in
  let waiting = Queue.create () and tail_waiting = Queue.create () in
  let wake now = if not (Queue.is_empty waiting) then Queue.pop waiting now in
  (* only ever an event's last action *)
  let wake_tail now =
    if not (Queue.is_empty tail_waiting) then Queue.pop tail_waiting now
  in
  let rec exec now op =
    match op with
    | After (d, kids) ->
        let time = now +. d in
        let s = key time in
        Sim.Engine.after e d (fun () ->
            fired s;
            wake time;
            List.iter (exec time) kids;
            wake_tail time)
    | At (d, kids) ->
        let time = now +. d in
        let s = key time in
        Sim.Engine.at e time (fun () ->
            fired s;
            List.iter (exec time) kids;
            wake_tail time)
    | Timer (d, kids) ->
        let time = now +. d in
        let s = key time in
        Sim.Engine.timer e d (fun () ->
            fired s;
            List.iter (exec time) kids;
            wake_tail time)
    | Proc steps ->
        let s = key now in
        Sim.Engine.spawn e (fun () ->
            fired s;
            run_steps now steps)
    | Stop ->
        Sim.Engine.stop e;
        (* a stop before the first run is forgotten when it starts *)
        if !current >= 0 then begin
          halted := true;
          halts := !current :: !halts
        end
  and run_steps now = function
    | [] -> ()
    | Nap d :: rest ->
        let time = now +. d in
        let s = key time in
        Sim.Engine.sleep e d;
        fired s;
        run_steps time rest
    | Wait :: rest ->
        let now =
          Sim.Engine.suspend e (fun resume -> Queue.push resume waiting)
        in
        run_steps now rest
    | Tail_wait :: rest ->
        let now =
          Sim.Engine.suspend_tail e (fun resume ->
              Queue.push resume tail_waiting)
        in
        run_steps now rest
    | Wake :: rest ->
        wake now;
        run_steps now rest
    | Do op :: rest ->
        exec now op;
        run_steps now rest
  in
  List.iter (exec 0.0) prog;
  let rec drive () =
    halted := false;
    Sim.Engine.run e;
    if !halted then begin
      trace := Halt :: !trace;
      drive ()
    end
  in
  drive ();
  (List.rev !trace, !keys, !halts, Sim.Engine.events_executed e)

(* The reference: every queued event in one list sorted by (time, seq),
   each at its own time, and a halt after each event that stopped the
   engine. *)
let reference keys halts =
  List.sort
    (fun (ta, sa) (tb, sb) ->
      match Float.compare ta tb with 0 -> Int.compare sa sb | c -> c)
    keys
  |> List.concat_map (fun (t, s) ->
         if List.mem s halts then [ Ev (s, t); Halt ] else [ Ev (s, t) ])

let show_entry = function
  | Ev (s, t) -> Printf.sprintf "%d@%g" s t
  | Halt -> "stop"

(* 300 cases under [dune runtest]; QCHECK_LONG=1 (a CI step) runs 20
   times as many. *)
let prop_dispatch_order ~name timer_delays =
  QCheck.Test.make ~name ~count:300 ~long_factor:20
    (QCheck.make ~print:show_ops (gen_program timer_delays))
    (fun program ->
      let trace, keys, halts, events = run_program program in
      let expected = reference keys halts in
      if trace <> expected then
        QCheck.Test.fail_reportf "dispatched %s\nexpected %s"
          (String.concat " " (List.map show_entry trace))
          (String.concat " " (List.map show_entry expected));
      events = List.length keys)

let prop_dispatch_few_lanes =
  prop_dispatch_order ~name:"dispatch order, few timer delays" [ 0.0; 1.0; 2.0 ]

let prop_dispatch_many_lanes =
  prop_dispatch_order ~name:"dispatch order, many timer delays"
    (List.init 40 (fun i -> 0.25 *. float_of_int i))

(* ---- ivar ---- *)

let test_ivar_basic () =
  run_sim (fun e ->
      let iv = Sim.Ivar.create e in
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.sleep e 1.0;
          Sim.Ivar.fill iv 42);
      let v = Sim.Ivar.read iv in
      Alcotest.(check int) "value" 42 v;
      Alcotest.(check (float 1e-9)) "waited" 1.0 (Sim.Engine.now e);
      (* read after fill is immediate *)
      Alcotest.(check int) "re-read" 42 (Sim.Ivar.read iv))

let test_ivar_double_fill () =
  run_sim (fun e ->
      let iv = Sim.Ivar.create e in
      Sim.Ivar.fill iv 1;
      Alcotest.check_raises "double fill"
        (Invalid_argument "Ivar.fill: already filled") (fun () ->
          Sim.Ivar.fill iv 2))

let test_ivar_multiple_readers () =
  run_sim (fun e ->
      let iv = Sim.Ivar.create e in
      let seen = ref 0 in
      for _ = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            let v = Sim.Ivar.read iv in
            seen := !seen + v)
      done;
      Sim.Engine.sleep e 1.0;
      Sim.Ivar.fill iv 10;
      Sim.Engine.sleep e 0.1;
      Alcotest.(check int) "all readers woken" 30 !seen)

(* ---- semaphore ---- *)

let test_semaphore_mutual_exclusion () =
  run_sim (fun e ->
      let sem = Sim.Semaphore.create e 1 in
      let active = ref 0 in
      let max_active = ref 0 in
      for _ = 1 to 5 do
        Sim.Engine.spawn e (fun () ->
            Sim.Semaphore.with_unit sem (fun () ->
                incr active;
                max_active := max !max_active !active;
                Sim.Engine.sleep e 1.0;
                decr active))
      done;
      Sim.Engine.sleep e 10.0;
      Alcotest.(check int) "never concurrent" 1 !max_active)

let test_semaphore_capacity () =
  run_sim (fun e ->
      let sem = Sim.Semaphore.create e 3 in
      let max_active = ref 0 in
      let active = ref 0 in
      for _ = 1 to 10 do
        Sim.Engine.spawn e (fun () ->
            Sim.Semaphore.with_unit sem (fun () ->
                incr active;
                max_active := max !max_active !active;
                Sim.Engine.sleep e 1.0;
                decr active))
      done;
      Sim.Engine.sleep e 20.0;
      Alcotest.(check int) "bounded by capacity" 3 !max_active)

let test_semaphore_waits_while_exhausted () =
  run_sim (fun e ->
      let sem = Sim.Semaphore.create e 1 in
      let entered = ref [] in
      Sim.Engine.spawn e (fun () ->
          Sim.Semaphore.with_unit sem (fun () ->
              entered := ("holder", Sim.Engine.now e) :: !entered;
              Sim.Engine.sleep e 2.0));
      Sim.Engine.sleep e 0.5;
      Sim.Semaphore.with_unit sem (fun () ->
          entered := ("waiter", Sim.Engine.now e) :: !entered);
      Alcotest.(check (list (pair string (float 1e-9))))
        "the waiter enters when the holder leaves"
        [ ("holder", 0.0); ("waiter", 2.0) ]
        (List.rev !entered))

let test_semaphore_release_on_exception () =
  run_sim (fun e ->
      let sem = Sim.Semaphore.create e 1 in
      (try Sim.Semaphore.with_unit sem (fun () -> failwith "boom")
       with Failure _ -> ());
      (* the unit came back: the next holder enters without waiting *)
      Sim.Semaphore.with_unit sem (fun () -> ());
      Alcotest.(check (float 1e-9)) "no wait" 0.0 (Sim.Engine.now e))

(* ---- resource ---- *)

let test_resource_busy_time () =
  run_sim (fun e ->
      let r = Sim.Resource.create e "cpu" in
      Sim.Resource.use r 2.0;
      Sim.Engine.sleep e 3.0;
      Sim.Resource.use r 1.0;
      Alcotest.(check (float 1e-9)) "busy time" 3.0 (Sim.Resource.busy_time r);
      Alcotest.(check (float 1e-9)) "clock" 6.0 (Sim.Engine.now e))

let test_resource_queueing () =
  run_sim (fun e ->
      let r = Sim.Resource.create e "disk" in
      let completion = ref [] in
      for i = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            Sim.Resource.use r 1.0;
            completion := (i, Sim.Engine.now e) :: !completion)
      done;
      Sim.Engine.sleep e 10.0;
      Alcotest.(check (list (pair int (float 1e-9))))
        "FIFO service"
        [ (1, 1.0); (2, 2.0); (3, 3.0) ]
        (List.rev !completion);
      (* resource was busy the whole 3 seconds *)
      Alcotest.(check (float 1e-9)) "busy" 3.0 (Sim.Resource.busy_time r))

(* The hand-off property: processes that [use] one or two resources,
   and nap between uses, run exactly as under a resource that resumes
   its next waiter at the release to acquire the unit and sleep out its
   hold, as [Resource] once did. Durations come from a small set so
   that holds end, and naps wake, at the same instants. *)
type hold_step = Hold of int * float | Rest of float

let show_hold_step = function
  | Hold (r, d) -> Printf.sprintf "use r%d %g" r d
  | Rest d -> Printf.sprintf "nap %g" d

let gen_holders =
  let open QCheck.Gen in
  let dur = map (fun k -> 0.5 *. float_of_int k) (int_bound 2) in
  let step =
    frequency
      [
        (3, map2 (fun r d -> Hold (r, d)) (int_bound 1) dur);
        (1, map (fun d -> Rest d) dur);
      ]
  in
  list_size (int_range 1 6) (list_size (int_range 1 5) step)

(* The resource as it was: acquire (waiting for a release to resume
   this process), sleep, release, with the same busy-time notes. *)
module Reference_resource = struct
  type t = {
    e : Sim.Engine.t;
    mutable held : bool;
    waiters : (unit -> unit) Queue.t;
    mutable busy : float;
    mutable since : float;
  }

  let create e = { e; held = false; waiters = Queue.create (); busy = 0.0; since = 0.0 }

  let acquire t =
    if t.held then Sim.Engine.suspend t.e (fun resume -> Queue.push resume t.waiters);
    t.held <- true;
    t.since <- Sim.Engine.now t.e

  let release t =
    t.held <- false;
    t.busy <- t.busy +. (Sim.Engine.now t.e -. t.since);
    if not (Queue.is_empty t.waiters) then (Queue.pop t.waiters) ()

  let use t d =
    acquire t;
    Sim.Engine.sleep t.e d;
    release t
end

(* Runs [procs] with [use] and returns the (time, process, step) trace
   of finished steps, each resource's busy time and the event count. *)
let run_holders procs ~create ~use ~busy_time =
  let e = Sim.Engine.create () in
  let rs = [| create e; create e |] in
  let trace = ref [] in
  List.iteri
    (fun p steps ->
      Sim.Engine.spawn e (fun () ->
          List.iteri
            (fun i step ->
              (match step with
              | Hold (r, d) -> use rs.(r) d
              | Rest d -> Sim.Engine.sleep e d);
              trace := (Sim.Engine.now e, p, i) :: !trace)
            steps))
    procs;
  Sim.Engine.run e;
  (List.rev !trace, Array.map busy_time rs, Sim.Engine.events_executed e)

let prop_resource_hand_off =
  QCheck.Test.make ~name:"resource hand-off matches acquire, sleep, release"
    ~count:300 ~long_factor:20
    (QCheck.make
       ~print:(fun procs ->
         String.concat " | "
           (List.map
              (fun steps -> String.concat "; " (List.map show_hold_step steps))
              procs))
       gen_holders)
    (fun procs ->
      let got =
        run_holders procs ~create:(fun e -> Sim.Resource.create e "r")
          ~use:Sim.Resource.use ~busy_time:Sim.Resource.busy_time
      and expected =
        run_holders procs ~create:Reference_resource.create
          ~use:Reference_resource.use ~busy_time:(fun r ->
            r.Reference_resource.busy)
      in
      let show (trace, busy, events) =
        Printf.sprintf "%s busy [%s] events %d"
          (String.concat " "
             (List.map (fun (t, p, i) -> Printf.sprintf "%g:p%d.%d" t p i) trace))
          (String.concat "; " (Array.to_list (Array.map string_of_float busy)))
          events
      in
      if got <> expected then
        QCheck.Test.fail_reportf "got %s\nexpected %s" (show got) (show expected);
      true)

(* ---- waitgroup ---- *)

let test_waitgroup_joins () =
  run_sim (fun e ->
      let wg = Sim.Waitgroup.create e in
      Sim.Waitgroup.add wg ~n:3 ();
      for i = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            Sim.Engine.sleep e (float_of_int i);
            Sim.Waitgroup.done_ wg)
      done;
      Sim.Waitgroup.wait wg;
      Alcotest.(check (float 1e-9)) "waited for the slowest" 3.0
        (Sim.Engine.now e);
      Alcotest.check_raises "drained"
        (Invalid_argument "Waitgroup.done_: below zero") (fun () ->
          Sim.Waitgroup.done_ wg))

let test_waitgroup_immediate () =
  run_sim (fun e ->
      let wg = Sim.Waitgroup.create e in
      Sim.Waitgroup.wait wg;
      Alcotest.(check (float 1e-9)) "no wait when empty" 0.0 (Sim.Engine.now e))

let test_waitgroup_below_zero () =
  run_sim (fun e ->
      let wg = Sim.Waitgroup.create e in
      Alcotest.check_raises "below zero"
        (Invalid_argument "Waitgroup.done_: below zero") (fun () ->
          Sim.Waitgroup.done_ wg))

let test_waitgroup_multiple_waiters () =
  run_sim (fun e ->
      let wg = Sim.Waitgroup.create e in
      Sim.Waitgroup.add wg ();
      let released = ref 0 in
      for _ = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            Sim.Waitgroup.wait wg;
            incr released)
      done;
      Sim.Engine.sleep e 1.0;
      Alcotest.(check int) "nobody released yet" 0 !released;
      Sim.Waitgroup.done_ wg;
      Sim.Engine.sleep e 0.1;
      Alcotest.(check int) "all released" 3 !released)

(* ---- rand ---- *)

let test_rand_deterministic () =
  let a = Sim.Rand.create 7L in
  let b = Sim.Rand.create 7L in
  let seq r = List.init 20 (fun _ -> Sim.Rand.int r 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b)

let test_rand_seeds_differ () =
  let a = Sim.Rand.create 7L in
  let b = Sim.Rand.create 8L in
  let seq r = List.init 20 (fun _ -> Sim.Rand.int r 1000000) in
  Alcotest.(check bool) "different streams" false (seq a = seq b)

let prop_rand_int_bounds =
  QCheck.Test.make ~name:"Rand.int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_nat)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let r = Sim.Rand.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Sim.Rand.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rand_float_bounds =
  QCheck.Test.make ~name:"Rand.float stays in [0,1)" ~count:200 QCheck.small_nat
    (fun seed ->
      let r = Sim.Rand.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Sim.Rand.float r in
        if v < 0.0 || v >= 1.0 then ok := false
      done;
      !ok)

(* ---- int-keyed table against a Hashtbl model ---- *)

(* The table's key mixer, copied to aim keys at the end of the array:
   each key in [wrapping] has its home slot among the last two slots of
   an 8-, 16- or 32-slot table, so once a few are live their probe runs
   wrap past the end, and removals must shift entries back across it.
   Should the mixer change, these keys stop being aimed, but the model
   check still holds. *)
let mixed k =
  let h = k * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 29)

let wrapping =
  Seq.ints 0
  |> Seq.filter (fun k -> mixed k land 31 >= 30)
  |> Seq.take 40 |> List.of_seq

let scattered = [ 0; -1; 7; 100; 4096; 1 lsl 40; max_int; min_int ]
let table_keys = wrapping @ scattered

type table_op = Add of int | Remove of int | Clear

let print_table_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

let table_ops_arbitrary =
  let open QCheck.Gen in
  let key = frequency [ (4, oneofl wrapping); (1, oneofl scattered) ] in
  let add = map (fun k -> Add k) key in
  let op = frequency [ (5, add); (4, map (fun k -> Remove k) key) ] in
  (* adds grow the table from no slots and churn runs it near its
     load limit; then a clear empties it, and it fills again *)
  let phase fill =
    map2 ( @ ) (list_repeat fill add) (list_size (int_range 50 150) op)
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_table_op ops))
    (map3 (fun a b c -> a @ (Clear :: b) @ c) (phase 30) (phase 10) (phase 60))

(* After every step, [find] of every key is the value the model holds
   (the same string, physically) or the sentinel, [remove] reports
   whether the key was bound, and [fold] visits exactly the model's
   bindings. A run whose table never held 17 keys did not grow past 32
   slots, and fails. *)
let prop_inttbl_matches_model =
  QCheck.Test.make ~name:"Inttbl matches a Hashtbl model" ~count:200
    table_ops_arbitrary (fun ops ->
      let empty = "empty" in
      let t = Sim.Inttbl.create ~empty in
      let model = Hashtbl.create 64 in
      let most = ref 0 and step = ref 0 in
      let bindings_of fold tbl =
        List.sort compare (fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      let agrees () =
        List.for_all
          (fun k ->
            match Hashtbl.find_opt model k with
            | Some v -> Sim.Inttbl.find t k == v
            | None -> Sim.Inttbl.find t k == empty)
          table_keys
        && bindings_of Sim.Inttbl.fold t = bindings_of Hashtbl.fold model
      in
      List.for_all
        (fun op ->
          incr step;
          (match op with
          | Add k ->
              let v = string_of_int !step in
              Sim.Inttbl.replace t k v;
              Hashtbl.replace model k v
          | Remove k ->
              if Sim.Inttbl.remove t k <> Hashtbl.mem model k then
                QCheck.Test.fail_reportf "remove %d disagrees on membership" k;
              Hashtbl.remove model k
          | Clear ->
              Sim.Inttbl.clear t;
              Hashtbl.reset model);
          most := max !most (Hashtbl.length model);
          agrees ())
        ops
      && !most > 16)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "eventq",
        [
          Alcotest.test_case "time order" `Quick test_eventq_order;
          Alcotest.test_case "sequence ties" `Quick test_eventq_ties;
          Alcotest.test_case "pop empty" `Quick test_eventq_empty;
        ]
        @ qc [ prop_eventq_sorted ] );
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "spawn interleaving" `Quick test_spawn_interleaving;
          Alcotest.test_case "past scheduling rejected" `Quick
            test_at_past_rejected;
          Alcotest.test_case "run cut short by stop" `Quick test_run_stopped;
          Alcotest.test_case "process exception" `Quick
            test_process_exception_propagates;
          Alcotest.test_case "reused fiber keeps the schedule" `Quick
            test_reused_fiber_schedule;
          Alcotest.test_case "reused fiber failure names its job" `Quick
            test_reused_fiber_failure_names_job;
          Alcotest.test_case "run again after fibers retire" `Quick
            test_run_after_retire;
          Alcotest.test_case "more finished processes than parked fibers"
            `Quick test_many_finished_processes;
        ]
        @ qc [ prop_dispatch_few_lanes; prop_dispatch_many_lanes ] );
      ( "ivar",
        [
          Alcotest.test_case "basic" `Quick test_ivar_basic;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "multiple readers" `Quick
            test_ivar_multiple_readers;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_semaphore_mutual_exclusion;
          Alcotest.test_case "capacity" `Quick test_semaphore_capacity;
          Alcotest.test_case "waits while exhausted" `Quick
            test_semaphore_waits_while_exhausted;
          Alcotest.test_case "release on exception" `Quick
            test_semaphore_release_on_exception;
        ] );
      ( "resource",
        [
          Alcotest.test_case "busy time" `Quick test_resource_busy_time;
          Alcotest.test_case "queueing" `Quick test_resource_queueing;
        ]
        @ qc [ prop_resource_hand_off ] );
      ( "waitgroup",
        [
          Alcotest.test_case "joins" `Quick test_waitgroup_joins;
          Alcotest.test_case "immediate" `Quick test_waitgroup_immediate;
          Alcotest.test_case "below zero" `Quick test_waitgroup_below_zero;
          Alcotest.test_case "multiple waiters" `Quick
            test_waitgroup_multiple_waiters;
        ] );
      ( "rand",
        [
          Alcotest.test_case "deterministic" `Quick test_rand_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rand_seeds_differ;
        ]
        @ qc [ prop_rand_int_bounds; prop_rand_float_bounds ] );
      ("inttbl", qc [ prop_inttbl_matches_model ]);
    ]
