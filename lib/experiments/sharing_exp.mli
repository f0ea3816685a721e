(** The shared-database experiment (extension).

    Section 2.3 suspects that "the weakness of NFS consistency may be
    responsible for the lack of shared-database applications". Here N
    clients concurrently update disjoint record ranges of one shared
    file while reading each other's records, under every protocol:

    - NFS: fast (everything cached) but serves stale records;
    - SNFS: correct, but the write-shared file disables caching for
      everyone (whole-file granularity);
    - RFS: correct, write-through costs on every update;
    - Kent block protocol: correct *and* cached — block granularity is
      exactly what this workload wants (and why Kent's design needed
      hardware help in 1986).

    A read is counted stale only if it returns data older than a write
    that had *completed* before the read began (concurrent updates may
    legitimately return either version). *)

type row = {
  label : string;
  elapsed : float;
  stale_reads : int;
  total_reads : int;
  server_rpcs : int;
}

val run_protocol :
  label:string ->
  make_clients:
    (Sim.Engine.t ->
    Netsim.Net.t ->
    Netsim.Rpc.t ->
    Netsim.Net.Host.t ->
    Localfs.t ->
    (Vfs.Mount.t * Netsim.Net.Host.t) list * (unit -> int)) ->
  unit ->
  row

val table : unit -> string
