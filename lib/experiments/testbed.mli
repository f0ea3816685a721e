(** Experiment testbed: a one-client {!Cluster}, wired the way the
    paper's Titans were (Section 5.2). The client has its own local
    disk and file system (with the traditional synchronous-metadata
    Unix behaviour), a 16 MB protocol cache, and the 30-second
    [/etc/update] daemon unless disabled.

    The mount layout puts the file system under test at [/data] (and
    [/tmp], [/usr_tmp] when they are remote), and the client's
    always-local disk at [/local] (sort input/output live there). *)

(** The stack under test, wired by {!Stack}; re-exported so callers
    can keep writing [Testbed.Snfs_proto]. *)
type protocol = Stack.protocol =
  | Local
  | Nfs_proto of Nfs.Nfs_client.config
  | Snfs_proto of Snfs.Snfs_client.config
  | Rfs_proto of Rfs.Rfs_client.config
  | Kent_proto of Kentfs.Kent_client.config

(** Where /tmp and /usr_tmp live. *)
type tmp_placement = Tmp_local | Tmp_remote

type t

val create :
  Sim.Engine.t ->
  protocol:protocol ->
  tmp:tmp_placement ->
  ?update_interval:float option ->
  (* Some s = /etc/update period; None = infinite write-delay *)
  ?name_cache:bool ->
  (* directory-name lookup cache ablation (Section 5.2 footnote 6);
     off by default, as in the measured systems *)
  ?write_back_policy:[ `Unix | `Sprite of float ] ->
  (* `Unix (default): the syncer flushes every dirty block, as
     /etc/update's sync() does; `Sprite age: only blocks that have
     been dirty at least [age] seconds are written (Section 4.2.3) *)
  unit ->
  t

(** Application context (mounts + client host) for workloads. *)
val ctx : t -> Workload.App.t

val client_host : t -> Netsim.Net.Host.t
val server_host : t -> Netsim.Net.Host.t

(** RPC service of the protocol under test ([None] for Local). *)
val service : t -> Netsim.Rpc.service option

(** Let in-flight background work (write-behinds) settle without
    advancing past [horizon] virtual seconds. *)
val drain : t -> horizon:float -> unit

(** [counting t f] runs [f] and returns its result with the calls the
    server ran, per procedure, while [f] ran (empty for Local). The
    paper's tables count only the measured run, never the setup. *)
val counting : t -> (unit -> 'a) -> 'a * Stats.Counter.t

(** The paper's Andrew method (Section 5.2): set up the source tree,
    let the setup's delayed writes settle for 65 s, then time the five
    phases and count the RPCs of that timed run only. *)
val andrew :
  t -> Workload.Andrew.config -> Workload.Andrew.phase_times * Stats.Counter.t
