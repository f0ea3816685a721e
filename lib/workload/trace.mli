(** Trace-driven workload, shaped by the BSD trace study the paper's
    argument leans on (Ousterhout et al. 1985, the paper's [10]):

    - most accesses are whole-file and sequential;
    - most files are small;
    - a surprising number of files live for only a few seconds and are
      never shared — the delayed-write opportunity;
    - a few files (headers, executables) are re-read over and over.

    {!generate} produces a deterministic operation list from a fixed
    seed; {!replay} runs it through the system-call layer, recording
    per-operation-class latency histograms.

    The mix is fixed: 400 operations in [/data/trace] over 6 hot and 60
    cold files; 15% create a temporary that lives 3 s, 75% of the rest
    are reads, of which 15% only stat the file, and the others are
    rewrites; 80% of
    writes are 3,000 bytes and the rest 24,000; operations are
    separated by exponential think times with a mean of 0.3 s. *)

type op =
  | Read_whole of string
  | Rewrite of string * int  (** truncate + write bytes *)
  | Stat of string
  | Temp of string * int  (** create, write, read back, delete *)

val generate : unit -> op list

(** Latency histograms per operation class, plus total elapsed time. *)
type result = {
  read_lat : Stats.Histogram.t;
  write_lat : Stats.Histogram.t;
  stat_lat : Stats.Histogram.t;
  temp_lat : Stats.Histogram.t;
  elapsed : float;
}

(** [setup ctx] creates the working directory and its files. *)
val setup : App.t -> unit

val replay : App.t -> op list -> result
