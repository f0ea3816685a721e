(* The two-client write-sharing run that the observability and causal
   suites trace: two SNFS clients ping-pong one file, so the server
   issues callbacks on conflicting opens, and the run passes through
   the rpc, net, cache and protocol probe sites. *)

module Cluster = Experiments.Cluster
module Stack = Experiments.Stack

let scenario e =
  let cluster = Cluster.create e in
  let server = Cluster.serve cluster ~fsid:2 Stack.Snfs in
  let mount name =
    (Cluster.mount cluster server ~host:name ~name (Stack.default Stack.Snfs))
      .Cluster.mounts
  in
  let m1 = mount "c1" in
  let m2 = mount "c2" in
  let fd = Vfs.Fileio.creat m1 "/f" in
  ignore (Vfs.Fileio.write fd ~len:16384);
  Vfs.Fileio.close fd;
  ignore (Vfs.Fileio.read_file m2 "/f");
  let wfd = Vfs.Fileio.openf m1 "/f" Vfs.Fs.Write_only in
  ignore (Vfs.Fileio.write wfd ~len:4096);
  Sim.Engine.sleep e 0.5;
  ignore (Vfs.Fileio.read_file m2 "/f");
  Vfs.Fileio.close wfd;
  Sim.Engine.sleep e 1.0

(* a run of [scenario] under a fresh tracer, and its trace *)
let traced () =
  let tr = Obs.Trace.create () in
  Obs.Trace.with_tracer tr (fun () -> Harness.run_sim scenario);
  tr
