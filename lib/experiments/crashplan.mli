(** Deterministic fault schedules for the crash campaign.

    A plan is a list of timed fault events derived purely from a seed
    ({!Sim.Rand}, splitmix64): the same seed always yields the same
    schedule, which together with the deterministic engine makes whole
    crash experiments reproducible byte-for-byte. *)

type event =
  | Server_crash of { at : float; down_for : float }
  | Client_crash of { at : float; client : int }
      (** the client host dies without closing anything *)
  | Client_partition of { at : float; client : int; heal_after : float }
      (** network partition between this client and the server *)

type t

(** The canonical campaign schedule over [clients] (>= 4) client
    hosts: the server crashes and reboots mid-benchmark (around
    t=40); once recovery is over, client 1 and client 2 crash without
    closing (around t=80/t=90) and client 3 is partitioned, healing
    around t=210 — inside a 120 s courtesy lifetime started by its
    demotion. Instants carry seed-dependent jitter. *)
val generate : seed:int64 -> ?clients:int -> unit -> t

(** One human-readable line per event, in time order. *)
val describe : t -> string list

(** Spawn one fiber per event: crash/reboot the server host, crash
    client hosts, partition and heal client-server links, each with a
    trace instant in the ["fault"] category. [clients] is indexed by
    the event's client number. *)
val install :
  t ->
  Sim.Engine.t ->
  net:Netsim.Net.t ->
  server:Netsim.Net.Host.t ->
  clients:Netsim.Net.Host.t array ->
  unit
