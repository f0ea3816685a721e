(** Offline causal-trace analyzer.

    Reconstructs per-operation trees from Chrome trace JSON (the
    {!Chrome} export of a {!Causal}-tagged run) and reports:

    - a {b critical-path decomposition} per operation class: client
      compute, network, server queue, server compute, disk, and
      consistency-protocol overhead;
    - a {b callback-storm profile}: the fan-out size distribution and
      which operation classes induced the callbacks;
    - a per-protocol {b consistency tax} table (callback time as a
      share of total operation time) across the analyzed runs.

    Pure text-in/text-out: file reading stays in [bin], and the report
    is deterministic — fixed number formats, sorted rows — so two
    analyses of byte-identical traces render byte-identically. *)

type op_stat = {
  op_id : int;
  cls : string;  (** root span name: "open", "read", ... *)
  total : float;  (** seconds, root span duration *)
  client : float;
  network : float;
  queue : float;
  server : float;
  disk : float;
  consist : float;
  fanout : int;  (** callback RPCs this operation induced *)
}

type run = {
  label : string;
  protocol : string;  (** inferred from the dominant RPC program *)
  ops : op_stat list;  (** sorted by op id *)
  orphan_spans : int;  (** op-tagged spans with no root — 0 when trees
                           are complete *)
  callback_spans : int;
  flow_starts : int;
  flow_ends : int;
  flow_linked : int;  (** callback spans whose op has both flow ends *)
}

(** Parse one Chrome trace JSON document into per-operation stats.
    Raises {!Json.Error} on malformed input. *)
val of_chrome : label:string -> string -> run

(** Render the full report for the given runs. *)
val report : run list -> string
