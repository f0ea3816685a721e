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

let run_protocol ~label ~make_clients () =
  Driver.run (fun engine ->
      let net = Netsim.Net.create engine () in
      let rpc = Netsim.Rpc.create net () in
      let server_host = Netsim.Net.Host.create net "server" in
      let disk = Diskm.Disk.create engine "sd" in
      let sfs =
        Localfs.create engine ~name:"sfs" ~disk ~cache_blocks:896
          ~meta_policy:`Sync ()
      in
      let clients, rpc_count = make_clients engine net rpc server_host sfs in
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
          Sim.Engine.spawn engine ~name:(Printf.sprintf "dbclient%d" i)
            (fun () ->
              let fd = Vfs.Fileio.openf mounts "/db" Vfs.Fs.Read_write in
              for _ = 1 to iterations do
                Workload.App.think ctx 0.05;
                (* update one of my own records *)
                let mine =
                  (i * blocks_per_client)
                  + Sim.Rand.int my_rand blocks_per_client
                in
                let stamp = Vfs.Stamp.fresh () in
                Vfs.Fileio.seek fd (mine * block_size);
                ignore (Vfs.Fileio.write ~stamp fd ~len:block_size);
                completed.(mine) <- stamp;
                (* read somebody else's record and check freshness *)
                let theirs =
                  let b = Sim.Rand.int rand total_blocks in
                  if
                    b / blocks_per_client = i
                  then (b + blocks_per_client) mod total_blocks
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
      })

(* [nclients] hosts, each mounting the one server with the kind's
   default client *)
let clients kind _engine net rpc server_host sfs =
  let server = Stack.serve rpc server_host ~fsid:1 sfs kind in
  let hosts =
    List.init nclients (fun i ->
        Netsim.Net.Host.create net (Printf.sprintf "db%d" i))
  in
  let mounts =
    List.map
      (fun host ->
        let c =
          Stack.mount rpc ~client:host ~name:(Netsim.Net.Host.name host) server
            (Stack.default kind)
        in
        let m = Vfs.Mount.create () in
        Vfs.Mount.mount m ~at:"/" c.Stack.fs;
        (m, host))
      hosts
  in
  ( mounts,
    fun () -> Stats.Counter.total (Netsim.Rpc.counters server.Stack.service) )

let table () =
  let rows =
    [
      run_protocol ~label:"NFS" ~make_clients:(clients Stack.Nfs) ();
      run_protocol ~label:"RFS (sec 2.5)" ~make_clients:(clients Stack.Rfs) ();
      run_protocol ~label:"SNFS" ~make_clients:(clients Stack.Snfs) ();
      run_protocol ~label:"Kent blocks (sec 2.5)"
        ~make_clients:(clients Stack.Kent) ();
    ]
  in
  Report.banner
    "Shared database (extension): 4 clients, disjoint records, one file"
  ^ "\n"
  ^ Report.table
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
