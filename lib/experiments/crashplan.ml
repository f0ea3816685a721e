(* Deterministic fault schedules. A plan is a seed-derived list of
   timed fault events; [install] turns each event into a fiber that
   sleeps to its instant and flips the corresponding simulation state
   (host crash/reboot, network partition/heal). Everything downstream
   of the seed is pure splitmix64, so the same seed always produces
   the same schedule and therefore the same simulation. *)

type event =
  | Server_crash of { at : float; down_for : float }
  | Client_crash of { at : float; client : int }
  | Client_partition of { at : float; client : int; heal_after : float }

type t = event list

let event_time = function
  | Server_crash { at; _ } | Client_crash { at; _ }
  | Client_partition { at; _ } ->
      at

(* The canonical schedule of the crash campaign: the server dies
   mid-benchmark and recovers; later two state-holding clients die
   without closing and one is merely partitioned, healing inside the
   courtesy lifetime. Jitter keeps the instants seed-dependent without
   letting phases overlap (the client-lifecycle story needs the server
   recovery finished first). *)
let generate ~seed ?(clients = 4) () =
  if clients < 4 then invalid_arg "Crashplan.generate: needs >= 4 clients";
  let rand = Sim.Rand.create seed in
  let r lo hi = Sim.Rand.range rand lo hi in
  let server_at = r 38.0 46.0 in
  let server_down = r 6.0 10.0 in
  let crash1 = r 78.0 84.0 in
  let part3 = r 84.0 88.0 in
  let crash2 = r 88.0 94.0 in
  let heal3 = r 205.0 215.0 in
  let events =
    [
      Server_crash { at = server_at; down_for = server_down };
      Client_crash { at = crash1; client = 1 };
      Client_partition { at = part3; client = 3; heal_after = heal3 -. part3 };
      Client_crash { at = crash2; client = 2 };
    ]
  in
  List.sort (fun a b -> compare (event_time a) (event_time b)) events

let describe t =
  List.map
    (function
      | Server_crash { at; down_for } ->
          Printf.sprintf "t=%6.2f server crashes, reboots at t=%.2f" at
            (at +. down_for)
      | Client_crash { at; client } ->
          Printf.sprintf "t=%6.2f client%d crashes (no close)" at client
      | Client_partition { at; client; heal_after } ->
          Printf.sprintf "t=%6.2f client%d partitioned, heals at t=%.2f" at
            client (at +. heal_after))
    t

let fault_event engine name args =
  if Obs.Trace.on () then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now engine)
      ~cat:"fault" ~name ~track:"faults" ~args ()

let install t engine ~net ~server ~clients =
  List.iter
    (fun ev ->
      match ev with
      | Server_crash { at; down_for } ->
          Sim.Engine.spawn engine ~name:"fault.server-crash" (fun () ->
              Sim.Engine.sleep engine at;
              Netsim.Net.Host.crash server;
              fault_event engine "server_crash" [];
              Sim.Engine.sleep engine down_for;
              Netsim.Net.Host.reboot server;
              fault_event engine "server_reboot"
                [
                  ( "epoch",
                    Obs.Trace.Int (Netsim.Net.Host.boot_epoch server) );
                ])
      | Client_crash { at; client } ->
          Sim.Engine.spawn engine
            ~name:(Printf.sprintf "fault.client%d-crash" client)
            (fun () ->
              Sim.Engine.sleep engine at;
              Netsim.Net.Host.crash clients.(client);
              fault_event engine "client_crash"
                [ ("client", Obs.Trace.Int client) ])
      | Client_partition { at; client; heal_after } ->
          Sim.Engine.spawn engine
            ~name:(Printf.sprintf "fault.client%d-partition" client)
            (fun () ->
              Sim.Engine.sleep engine at;
              Netsim.Net.partition net clients.(client) server;
              fault_event engine "partition"
                [ ("client", Obs.Trace.Int client) ];
              Sim.Engine.sleep engine heal_after;
              Netsim.Net.heal net clients.(client) server;
              fault_event engine "heal" [ ("client", Obs.Trace.Int client) ]))
    t
