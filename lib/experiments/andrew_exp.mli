(** The Andrew-benchmark experiments: Table 5-1 (elapsed time per
    phase), Table 5-2 (RPC operation counts), and Figures 5-1/5-2
    (server utilization and call rates over time). *)

(** Table 5-1: elapsed time per phase for every configuration. *)
val table_5_1 : unit -> string

(** Table 5-2: RPC calls by operation type for the remote configs. *)
val table_5_2 : unit -> string

(** Figures 5-1 and 5-2: time series of server CPU utilization and
    total/read/write call rates, for NFS and SNFS with /tmp remote. *)
val figures_5_1_and_5_2 : unit -> string
