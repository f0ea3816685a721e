module St = Spritely.State_table
module Stack = Experiments.Stack
module Cluster = Experiments.Cluster

type outcome = { reads : int; stale : int; server_divergence : int }

let nclients = 3

let path_of f = Printf.sprintf "/f%d" f

let replay kind ops =
  Experiments.Driver.run (fun e ->
      let cluster = Cluster.create e in
      let server = Cluster.serve cluster ~fsid:1 kind in
      let clients =
        List.init nclients (fun i ->
            Cluster.mount cluster server ~host:(Printf.sprintf "client%d" i)
              ~name:(Printf.sprintf "%s%d" (Stack.kind_name kind) i)
              (Stack.default kind))
      in
      let mount c = (List.nth clients c).Cluster.mounts in
      (* serial reference model: Some stamp = last write, None = never
         created / removed *)
      let model : (int, int) Hashtbl.t = Hashtbl.create 8 in
      (* open descriptors: (client, file) -> fd stack, write fds flagged *)
      let fds : (int * int, (Vfs.Fileio.fd * bool) list) Hashtbl.t =
        Hashtbl.create 8
      in
      let reads = ref 0 in
      let stale = ref 0 in
      let settle () = Sim.Engine.sleep e 0.2 in
      let push c f fd w =
        Hashtbl.replace fds (c, f)
          ((fd, w) :: Option.value ~default:[] (Hashtbl.find_opt fds (c, f)))
      in
      let pop c f w =
        match Hashtbl.find_opt fds (c, f) with
        | None -> None
        | Some stack -> (
            match List.partition (fun (_, w') -> w' = w) stack with
            | [], _ -> None
            | (fd, _) :: keep_same, keep_other ->
                let rest = keep_same @ keep_other in
                if rest = [] then Hashtbl.remove fds (c, f)
                else Hashtbl.replace fds (c, f) rest;
                Some fd)
      in
      let close_all pred =
        Hashtbl.fold (fun k stack acc -> (k, stack) :: acc) fds []
        |> List.sort compare
        |> List.iter (fun ((c, f), stack) ->
               if pred c f then begin
                 Hashtbl.remove fds (c, f);
                 List.iter (fun (fd, _) -> Vfs.Fileio.close fd) stack
               end)
      in
      let check_read c f =
        match Hashtbl.find_opt model f with
        | None -> (
            incr reads;
            match Vfs.Fileio.read_file (mount c) (path_of f) with
            | 0 -> ()
            | _ -> incr stale
            | exception Localfs.Error Localfs.Noent -> ())
        | Some expected -> (
            incr reads;
            match Vfs.Fileio.openf (mount c) (path_of f) Vfs.Fs.Read_only with
            | fd ->
                let observed = Vfs.Fileio.read fd ~len:1_000_000 in
                Vfs.Fileio.close fd;
                if observed = [] then incr stale
                else if List.exists (fun (s, _) -> s <> expected) observed then
                  incr stale
            | exception Localfs.Error Localfs.Noent -> incr stale)
      in
      List.iter
        (fun op ->
          (match op with
          | Check.Invariant.Open (c, f, St.Write) ->
              let fd = Vfs.Fileio.creat (mount c) (path_of f) in
              let stamp = Vfs.Fileio.write fd ~len:(2 * 4096) in
              Hashtbl.replace model f stamp;
              push c f fd true
          | Check.Invariant.Open (c, f, St.Read) -> (
              check_read c f;
              (* hold a descriptor across the following ops, like the
                 state-machine sequence does *)
              match Vfs.Fileio.openf (mount c) (path_of f) Vfs.Fs.Read_only with
              | fd -> push c f fd false
              | exception Localfs.Error Localfs.Noent -> ())
          | Check.Invariant.Close (c, f, m) -> (
              match pop c f (m = St.Write) with
              | Some fd -> Vfs.Fileio.close fd
              | None -> ())
          | Check.Invariant.Note_clean (c, f) -> (
              (* the client returns its dirty blocks: fsync *)
              match Hashtbl.find_opt fds (c, f) with
              | Some ((fd, _) :: _) -> Vfs.Fileio.fsync fd
              | Some [] | None -> ())
          | Check.Invariant.Forget c ->
              (* the client goes away gracefully: everything it holds
                 is closed *)
              close_all (fun c' _ -> c' = c)
          | Check.Invariant.Remove f -> (
              close_all (fun _ f' -> f' = f);
              match Vfs.Fileio.unlink (mount 0) (path_of f) with
              | () -> Hashtbl.remove model f
              | exception Localfs.Error Localfs.Noent ->
                  if Hashtbl.mem model f then incr stale));
          settle ())
        ops;
      close_all (fun _ _ -> true);
      (* the quiesce forces every client's dirty blocks to the server *)
      List.iter
        (fun c -> Blockcache.Cache.flush_all c.Cluster.stack.Stack.cache)
        clients;
      Sim.Engine.sleep e 1.0;
      (* after the quiesce every protocol's server copy must be exact *)
      let server_mount = Vfs.Mount.create () in
      Vfs.Mount.mount server_mount ~at:"/"
        (Vfs.Local_mount.make cluster.Cluster.server_fs);
      let server_divergence = ref 0 in
      let all_files =
        Hashtbl.fold (fun f _ acc -> f :: acc) model [] |> List.sort compare
      in
      List.iter
        (fun f ->
          let expected = Hashtbl.find model f in
          match Vfs.Fileio.openf server_mount (path_of f) Vfs.Fs.Read_only with
          | fd ->
              let observed = Vfs.Fileio.read fd ~len:1_000_000 in
              Vfs.Fileio.close fd;
              if
                observed = []
                || List.exists (fun (s, _) -> s <> expected) observed
              then incr server_divergence
          | exception Localfs.Error Localfs.Noent -> incr server_divergence)
        all_files;
      { reads = !reads; stale = !stale; server_divergence = !server_divergence })

let replay_all kind seqs =
  List.fold_left
    (fun acc seq ->
      let o = replay kind seq in
      {
        reads = acc.reads + o.reads;
        stale = acc.stale + o.stale;
        server_divergence = acc.server_divergence + o.server_divergence;
      })
    { reads = 0; stale = 0; server_divergence = 0 }
    seqs
