(** Runs one experiment in a fresh simulation.

    [run f] creates an engine, executes [f] as the initial simulation
    process (so it may block on I/O), stops the engine when [f]
    returns (background daemons would otherwise keep it alive forever),
    and returns [f]'s result.

    With [?trace], the tracer is installed for the duration of the run
    (and uninstalled afterwards, even on exception): every instrumented
    layer — rpc, net, caches, protocol clients and servers — appends
    its events to it.

    With [?metrics], the registry is installed the same way — before
    the engine is created, so creation-time instruments (resource
    polls, cache occupancy) register properly — unless the caller
    already installed that same registry around a larger scope, in
    which case it is left alone. Whenever a registry is installed
    (through this argument or by the caller), a sampler daemon
    snapshots it into time-series bins every 5 simulated seconds;
    sampling is started on first use and continues across runs sharing
    one registry. *)

val run :
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  (Sim.Engine.t -> 'a) ->
  'a
