(** Chrome trace-event JSON exporter.

    Renders a {!Trace.t} in the Trace Event Format understood by
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}: spans
    as async begin/end pairs, instants as instant events, and one
    simulated "thread" per track (host or cache), named via metadata
    events. Timestamps are simulated microseconds.

    Output is deterministic: equal traces render to identical bytes. *)

val to_string : Trace.t -> string
