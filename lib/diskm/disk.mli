(** Disk model.

    A disk serves requests one at a time in FIFO order (a single arm).
    Each request costs an average positioning time (seek + rotational
    latency) plus size-proportional transfer time. The paper's testbed
    used DEC RA81/RA82 drives; {!ra81} approximates one.

    Calls block the calling simulation process for queueing plus
    service time. Busy time is exposed for the utilization and
    disk-load analyses (Section 5.2); requests and bytes are counted in
    the metrics registry ([disk_reads_total], [disk_writes_total],
    [disk_bytes_read_total], [disk_bytes_written_total], labelled with
    the device name), and each request's service time is observed as
    [disk_io_seconds]. *)

type params = {
  positioning : float;  (** average seek + rotational latency, seconds *)
  transfer_rate : float;  (** bytes per second *)
  per_request_overhead : float;  (** controller / driver overhead, seconds *)
}

(** Approximation of a DEC RA81: ~22 ms average seek plus ~8.3 ms
    average rotational latency, 2.2 MB/s peak transfer. *)
(* snfs-lint: allow interface-drift — the paper's disk preset, referenced from DESIGN.md *)
val ra81 : params

type t

val create : Sim.Engine.t -> ?params:params -> string -> t

(* snfs-lint: allow interface-drift — identity accessor for report labelling *)
val name : t -> string

(** [read t ?at ~bytes] blocks for one read request of [bytes] bytes.
    [at] is an abstract block address: a request whose address follows
    directly on the previous request's pays no positioning cost (the
    head is already there), which is what makes sequential file I/O
    several times cheaper than scattered I/O. Omitting [at] always
    pays positioning.

    [?ctx] tags the request's trace span (cat ["disk"], covering both
    queueing for the arm and service time) with the causal context of
    the operation it serves — see {!Obs.Causal}. *)
val read : ?at:int -> ?ctx:Obs.Causal.t -> t -> bytes:int -> unit

(** [write t ?at ?ctx ~bytes] blocks for one write request. *)
val write : ?at:int -> ?ctx:Obs.Causal.t -> t -> bytes:int -> unit

(** Cumulative time the arm was busy. *)
val busy_time : t -> float
