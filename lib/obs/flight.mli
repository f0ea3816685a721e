(** Flight recorder: last-N-events ring dumped on failure.

    A full trace of a long run is large to keep, but the {e last} few
    thousand events are exactly what a post-mortem needs. {!arm} installs a ring-limited
    {!Trace} into the ordinary per-domain tracer slot (a no-op when a
    real tracer is already installed), so every existing probe site
    feeds the ring at the usual cost. On an oracle or invariant
    failure the harness calls {!capture}, which snapshots the ring as
    Chrome JSON; {!last} retrieves it for writing to disk. The module
    itself performs no I/O, so library determinism is untouched. *)

(** Arm the recorder on this domain with a ring of the newest 4096
    events. No-op when already armed or when a full tracer is
    installed. *)
val arm : unit -> unit

(** Uninstall the ring (if we installed it) and forget any snapshot. *)
val disarm : unit -> unit

(** Snapshot the current ring under [reason]. No-op when not armed.
    The latest capture wins. *)
val capture : reason:string -> unit

(** The most recent capture, as [(reason, chrome_json)]. *)
val last : unit -> (string * string) option
