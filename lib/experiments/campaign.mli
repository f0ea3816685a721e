(** Andrew-benchmark campaigns: independent configurations run
    sequentially or in parallel via {!Sweep}.

    One {!config} is a self-contained experiment — protocol stack, /tmp
    placement, and a (seeded) Andrew workload. Because every run builds
    its own engine and installs per-domain observability slots, a
    campaign's results are byte-identical whether run with [jobs:1] or
    fanned out over domains; [snfs_sim campaign --jobs N], the
    [perfbench/] andrew workload, and the parallel-determinism tests
    all share this module. *)

type config = {
  name : string;
  protocol : Testbed.protocol;
  tmp : Testbed.tmp_placement;
  andrew : Workload.Andrew.config;
}

(** A config with the default Andrew workload re-seeded; protocol
    defaults to SNFS, /tmp to remote. *)
val seeded :
  ?tmp:Testbed.tmp_placement ->
  ?protocol:Testbed.protocol ->
  name:string ->
  seed:int64 ->
  unit ->
  config

(** The standard eight-config campaign: every protocol stack plus the
    design variants the paper compares (NFS without the
    invalidate-on-close bug, SNFS with delayed close, SNFS with local
    /tmp). *)
val default : unit -> config list

(** The result of one config's Andrew run. [report] is a deterministic
    rendering (phase times plus per-procedure RPC counts); with
    [~observe:true], [metrics_csv] and [trace_json] hold the full
    metrics time-series export and Chrome trace (empty strings
    otherwise). *)
type run = {
  name : string;
  phases : Workload.Andrew.phase_times;
  events : int;  (** simulation events executed by this run's engine *)
  report : string;
  metrics_csv : string;
  trace_json : string;
}

(** Run one config in a fresh simulation. [observe] (default false)
    installs a tracer and metrics registry for the run. [slot]
    (default 0) offsets the tracer's span-id range so traces from
    different campaign slots never share ids when merged. *)
(* snfs-lint: allow interface-drift — called from perfbench/, which the analyzer does not scan *)
val run_one : ?observe:bool -> ?slot:int -> config -> run

(** Run a whole campaign with {!Sweep.map}; results in input order.
    Each config's tracer allocates span ids from its own disjoint
    per-slot range. *)
val run : jobs:int -> ?observe:bool -> config list -> run list

(** Concatenated reports. *)
val table : run list -> string
