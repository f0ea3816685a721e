(** The external-sort experiments: Tables 5-3 through 5-6. *)

type run_result = {
  label : string;
  elapsed : float;
  temp_bytes : int;
  counts : Stats.Counter.t;
  client_busy : float;  (** client CPU busy seconds during the run *)
}

(** [sort tb ~input_kb ~label] sorts [input_kb] of input on the
    testbed, temporaries on its /usr_tmp: setup, then the run, counting
    its RPCs and the client CPU it keeps busy. Call it inside
    {!Driver.run}. *)
val sort : Testbed.t -> input_kb:int -> label:string -> run_result

(** {!sort} in a fresh simulation: [input_kb] of input, temporaries on
    the given protocol's /usr_tmp. [update] is the /etc/update interval
    option. [trace] installs a tracer for the duration of the run;
    [metrics] a registry (sampled by {!Driver.run}). *)
val run_sort :
  ?trace:Obs.Trace.t ->
  ?metrics:Obs.Metrics.t ->
  protocol:Testbed.protocol ->
  ?update:float option ->
  input_kb:int ->
  label:string ->
  unit ->
  run_result

(** Table 5-3: elapsed time, three input sizes, local vs NFS vs SNFS. *)
val table_5_3 : unit -> string

(** Table 5-4: RPC calls for the 2816 kB sort, NFS vs SNFS. *)
val table_5_4 : unit -> string

(** Table 5-5: the same sorts with /etc/update disabled (infinite
    write-delay). *)
val table_5_5 : unit -> string

(** Table 5-6: read/write/other RPC counts for the 2816 kB sort with
    and without /etc/update, NFS vs SNFS. *)
val table_5_6 : unit -> string

(** Section 5.3's closing microbenchmark: write-close-reread. *)
val reread_check : unit -> string
