(** Unified metrics registry: counters, polled gauges and histograms,
    keyed by metric name plus sorted label pairs.

    Every simulation layer publishes its health here — the engine
    (events, queue depth), resources (busy time, queue length), the
    network and RPC transport, disks, block caches, and the four
    protocol stacks — so one export covers the numbers behind the
    paper's Tables 5-2/5-4/5-6 (per-operation RPC counts), Figures
    5-1/5-2 (server utilization and call rates), and the Table 4-1
    consistency actions.

    Like {!Trace}, the registry is an ambient slot: probe sites guard
    on {!on} and every emitting function is a no-op while no registry
    is installed, so instrumentation costs one load-and-compare when
    metrics are off. The slot is {e per-domain} (Domain.DLS), not
    process-global: each domain of a parallel campaign
    ({!Experiments.Sweep}) installs and samples its own registry
    without racing its siblings. Polled gauges are registered when a
    component is created, which therefore must happen while the
    registry is installed in the creating domain (as
    {!Experiments.Driver.run} arranges).

    Determinism: all values derive from simulated time and simulated
    events; exports iterate keys in sorted order, so two runs of the
    same seeded workload produce byte-identical output. *)

type t

(** Label pairs. Stored sorted by label key, so call-site order never
    matters. *)
type labels = (string * string) list

(** [create ()] makes an empty registry. *)
val create : unit -> t

(** {1 Global slot} *)


(** True while a registry is installed. *)
val on : unit -> bool

(** The installed registry, if any. *)
val installed : unit -> t option

(** Install for the duration of [f], uninstalling even on exception. *)
val with_metrics : t -> (unit -> 'a) -> 'a

(** {1 Emitting}

    All of these are no-ops while no registry is installed. A name must
    keep one instrument kind for the whole run; using it as a different
    kind raises [Invalid_argument]. *)

(** Add [n] (default 1) to a counter. *)
val incr : ?labels:labels -> ?n:int -> string -> unit

(** Record [v] into a histogram. *)
val observe : ?labels:labels -> string -> float -> unit

(** Register a polled gauge: [f] is evaluated at sampling and export
    time. [cumulative] (default false) marks a monotone total (such as
    {!Sim.Resource.busy_time}) whose sampled time series should hold
    per-bin deltas rather than levels. Re-registering the same
    name+labels replaces the thunk (last registration wins). *)
val register_poll :
  ?labels:labels -> ?cumulative:bool -> string -> (unit -> float) -> unit

(** {1 Reading} *)

(** Current value of a counter (0 when absent). *)
val counter_value : t -> ?labels:labels -> string -> int

(** Current value of a polled gauge (0 when absent; the poll is
    evaluated). *)
val gauge_value : t -> ?labels:labels -> string -> float

(** All label sets registered under a counter name, with their values,
    sorted by labels. *)
val counters_with : t -> string -> (labels * int) list

(** All label sets registered under a histogram name, with their
    histograms, sorted by labels. *)
val histograms_with : t -> string -> (labels * Stats.Histogram.t) list

(** The histogram under a name (created empty on first use). *)
val histogram : t -> ?labels:labels -> string -> Stats.Histogram.t

(** {1 Sampling}

    A sampler snapshots the registry into {!Stats.Timeseries} bins at a
    fixed cadence of simulated time. [start_sampling] resets any
    previous sampling state; [sample] is pure bookkeeping — scheduling
    the periodic calls is the caller's job (a simulation process; see
    {!Experiments.Driver.run}), which keeps this library free of any
    dependency on the engine. *)

(** Begin sampling: series bins are [interval] wide and times are
    relative to [origin]. *)
val start_sampling : t -> origin:float -> interval:float -> unit

val sampling_active : t -> bool

(** Take one sample at absolute simulated time [now]. Counters and
    cumulative polls contribute their delta since the previous sample;
    level polls contribute their current value. The sample
    is attributed to the middle of the interval that just ended (so a
    sample taken at the end of bin [k] lands in bin [k]). No-op when
    sampling has not started. *)
val sample : t -> now:float -> unit

(** The sampled series under a metric name: (labels, series) pairs
    sorted by labels. Empty when sampling never ran. *)
val series : t -> string -> (labels * Stats.Timeseries.t) list

(** {1 Export}

    Both exports are deterministic: keys are emitted in sorted order
    and all numbers are formatted with fixed conversions. *)

(** Prometheus text exposition format: a point-in-time snapshot of all
    counters, polled gauges (evaluated) and histograms (as summaries
    with p50/p90/p99 quantiles). *)
val to_prometheus : t -> string

(** CSV time series: header [series,time,value], one row per sampled
    bin, sorted by series name then time. Empty (header only) when
    sampling never ran. *)
val to_csv : t -> string

(** Plain-text "flight report": counters, polled gauges and histogram
    summaries as tables. The histogram section lists every series,
    the RPC layer's per-procedure round-trip latencies included. *)
val report : t -> string
