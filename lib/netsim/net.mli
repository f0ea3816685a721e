(** Network and host model.

    The network is an Ethernet-like shared medium: one message
    transmits at a time (size / bandwidth), followed by a fixed
    propagation latency, after which the message is delivered to the
    destination host — unless the network drops it (failure injection)
    or the destination is down (crash injection).

    A host owns a CPU resource (used by the RPC layer to charge
    per-message processing time) and can be crashed and rebooted.

    Messages sent, wire bytes sent and messages dropped are counted in
    the metrics registry ([net_messages_total], [net_bytes_total],
    [net_messages_dropped_total], labelled with the sending host). *)

type t

(** [create engine ()] makes the paper's 10 Mbit/s Ethernet (Section
    5.2), fixed: 1.25e6 bytes/s, a 0.3 ms propagation and medium-access
    latency and 64 bytes of framing per message, with no jitter. Drops
    and jitter draw from a generator with a fixed seed. *)
val create : Sim.Engine.t -> unit -> t

val engine : t -> Sim.Engine.t

(** Probability that any given message is lost (default 0). *)
(* snfs-lint: allow interface-drift — test seam: injects loss for DRC tests *)
val set_drop_probability : t -> float -> unit

(** Add up to this many seconds of uniformly random delay to every
    delivery (failure injection): jitter reorders messages and turns
    retransmissions into the delayed duplicates Section 3.2 warns
    about, which the duplicate-request caches must absorb. *)
(* snfs-lint: allow interface-drift — test seam: injects jitter for DRC tests *)
val set_jitter : t -> float -> unit

module Host : sig
  type net := t
  type t

  (** [create net name] registers a new host with a Titan-speed CPU. *)
  val create : net -> string -> t

  val name : t -> string
  val addr : t -> int
  val net : t -> net
  val engine : t -> Sim.Engine.t
  val cpu : t -> Sim.Resource.t

  (** Charge [seconds] of CPU time to the calling process. *)
  val use_cpu : t -> float -> unit

  (** Take the host down: undelivered and future messages to it are
      dropped, and its services stop answering. *)
  val crash : t -> unit

  (** Bring the host back up with a new boot epoch. *)
  val reboot : t -> unit

  (** Incremented on every reboot; lets protocols detect restarts. *)
  val boot_epoch : t -> int

  val by_addr : net -> int -> t
end

(** [send t ~src ~dst ~bytes ~deliver] queues a message. [deliver] runs
    at the destination when (and if) the message arrives; it must not
    block (it should spawn or resume processes). *)
val send :
  t -> src:Host.t -> dst:Host.t -> bytes:int -> deliver:(unit -> unit) -> unit

(** [partition t a b] silently discards all traffic between the two
    hosts, in both directions, until {!heal} — the network-partition
    failure mode Section 2.4's crash-detection machinery also covers. *)
val partition : t -> Host.t -> Host.t -> unit

val heal : t -> Host.t -> Host.t -> unit
