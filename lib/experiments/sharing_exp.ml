type row = {
  label : string;
  elapsed : float;
  stale_reads : int;
  total_reads : int;
  server_rpcs : int;
}

let nclients = 4

let blocks_per_client = 4

let iterations = 25

let block_size = 4096

(* the workload over [clients], (mount table, host) pairs *)
let share engine ~label (clients, rpc_count) =
  let total_blocks = nclients * blocks_per_client in
  (* one client lays out the shared database *)
  let first_mount, _ = List.hd clients in
  let fd = Vfs.Fileio.creat first_mount "/db" in
  ignore (Vfs.Fileio.write fd ~len:(total_blocks * block_size));
  Vfs.Fileio.close fd;
  (* ledger of completed updates: block -> newest completed stamp *)
  let completed = Array.make total_blocks 0 in
  let stale = ref 0 in
  let reads = ref 0 in
  let rand = Sim.Rand.create 0xD1CEL in
  let wg = Sim.Waitgroup.create engine in
  Sim.Waitgroup.add wg ~n:nclients ();
  let t0 = Sim.Engine.now engine in
  List.iteri
    (fun i (mounts, host) ->
      let ctx = Workload.App.make ~mounts ~host in
      let my_rand = Sim.Rand.create (Int64.of_int (0x5EED + i)) in
      Sim.Engine.spawn engine ~name:(Printf.sprintf "dbclient%d" i) (fun () ->
          let fd = Vfs.Fileio.openf mounts "/db" Vfs.Fs.Read_write in
          for _ = 1 to iterations do
            Workload.App.think ctx 0.05;
            (* update one of my own records *)
            let mine =
              (i * blocks_per_client) + Sim.Rand.int my_rand blocks_per_client
            in
            let stamp = Vfs.Stamp.fresh () in
            Vfs.Fileio.seek fd (mine * block_size);
            ignore (Vfs.Fileio.write ~stamp fd ~len:block_size);
            completed.(mine) <- stamp;
            (* read somebody else's record and check freshness *)
            let theirs =
              let b = Sim.Rand.int rand total_blocks in
              if b / blocks_per_client = i then
                (b + blocks_per_client) mod total_blocks
              else b
            in
            let expected = completed.(theirs) in
            Vfs.Fileio.seek fd (theirs * block_size);
            (match Vfs.Fileio.read fd ~len:block_size with
            | (s, _) :: _ ->
                incr reads;
                if s < expected then incr stale
            | [] -> incr reads)
          done;
          Vfs.Fileio.close fd;
          Sim.Waitgroup.done_ wg))
    clients;
  Sim.Waitgroup.wait wg;
  {
    label;
    elapsed = Sim.Engine.now engine -. t0;
    stale_reads = !stale;
    total_reads = !reads;
    server_rpcs = rpc_count ();
  }

let run_protocol ~label ~make_clients () =
  Driver.run (fun engine ->
      let c = Cluster.create engine in
      share engine ~label
        (make_clients engine c.Cluster.net c.Cluster.rpc c.Cluster.server_host
           c.Cluster.server_fs))

(* [nclients] hosts, each mounting the one server with the kind's
   default client *)
let run kind ~label =
  Driver.run (fun engine ->
      let cluster = Cluster.create engine in
      let server = Cluster.serve cluster ~fsid:1 kind in
      let clients =
        List.init nclients (fun i ->
            let name = Printf.sprintf "client%d" i in
            let c =
              Cluster.mount cluster server ~host:name ~name (Stack.default kind)
            in
            (c.Cluster.mounts, c.Cluster.host))
      in
      share engine ~label
        ( clients,
          fun () ->
            Stats.Counter.total (Netsim.Rpc.counters server.Stack.service) ))

let table () =
  let rows =
    [
      run Stack.Nfs ~label:"NFS";
      run Stack.Rfs ~label:"RFS (sec 2.5)";
      run Stack.Snfs ~label:"SNFS";
      run Stack.Kent ~label:"Kent blocks (sec 2.5)";
    ]
  in
  Report.banner
    "Shared database (extension): 4 clients, disjoint records, one file"
  ^ "\n"
  ^ Stats.Table.render
      ~header:[ "protocol"; "elapsed (s)"; "stale reads"; "of"; "server RPCs" ]
      (List.map
         (fun r ->
           [
             r.label;
             Report.secs r.elapsed;
             string_of_int r.stale_reads;
             string_of_int r.total_reads;
             string_of_int r.server_rpcs;
           ])
         rows)
  ^ "Section 2.3 suspects NFS's weak consistency explains \"the lack of\n\
     shared-database applications\"; SNFS fixes correctness at the cost\n\
     of whole-file non-caching, while Kent's block granularity keeps\n\
     both — at one ownership RPC per first-touch of a block.\n"
