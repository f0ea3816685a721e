(** Pass driver: parse sources, build the whole-program call graph and
    effect summaries, run every registered pass, filter waivers, apply
    the baseline, and render reports. *)

type input = { path : string; src : string }
(** one source file, with [path] relative to the tree root *)

type stat = {
  s_pass : string;  (** pass name *)
  s_findings : int;  (** raw findings the pass produced (pre-waiver) *)
  s_time_ms : float;
      (** wall time from the injected [clock], rounded to 0.1 ms —
          exactly 0.0 under the default constant clock *)
}

type result = {
  findings : Finding.t list;
      (** every post-waiver finding, sorted and deduplicated, stale
          waivers included *)
  fresh : Finding.t list;  (** findings not covered by the baseline *)
  baselined : Finding.t list;  (** findings the baseline absorbs *)
  stats : stat list;  (** one entry per executed pass, sorted by name *)
  live_waivers : (string * int) list;
      (** per rule, the waivers that suppressed a finding, sorted by
          rule; rules with none are absent *)
  files_scanned : int;  (** parsed input count *)
}

val passes : Pass.t list
(** the registered passes, in execution order *)

exception Unknown_rule of string
(** raised by [analyze] when [only]/[skip] names no registered pass *)

val analyze :
  ?baseline:Baseline.t ->
  ?only:string list ->
  ?skip:string list ->
  ?clock:(unit -> float) ->
  input list ->
  result
(** Run the selected passes over the inputs: all of them by default,
    the named subset with [only], everything but the named set with
    [skip] ([only] wins when both are given; an unregistered name
    raises {!Unknown_rule}). Unparseable files yield a single
    [parse-error] finding each, regardless of the selection. A finding
    is dropped when its flagged line (or the line above) carries a
    {!Waiver}. A waiver that suppresses nothing is itself a
    [stale-waiver] finding, when the rule it names ran and its file
    parsed. [clock] feeds the per-pass timing stats;
    the default returns a constant, keeping the library free of wall
    clocks (its own determinism pass bans them) — the CLI injects
    [Sys.time], tests inject a fake. *)

val stats_to_string : result -> string
(** the [--stats] rendering: files scanned, one line per pass (name,
    finding count, rounded ms) sorted by pass name, then the live
    waiver total and one line per rule that has any *)

val rule_docs : (string * string) list
(** [(id, doc)] for every registered pass plus the [parse-error] and
    [stale-waiver] pseudo-rules — the SARIF rule table *)

val load_tree : string -> input list
(** Read every [.ml]/[.mli] under
    [root]/{lib,bin,test,examples,perfbench},
    skipping dot- and underscore-prefixed entries, in sorted order.
    Returned paths are relative to [root]. *)
