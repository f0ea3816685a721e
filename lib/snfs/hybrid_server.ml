module Wire = Nfs.Wire

type phantom = { mutable expires : float }

type t = {
  snfs : Snfs_server.t;
  engine : Sim.Engine.t;
  probe_interval : float;
  (* implicit SNFS opens held for NFS clients: (file, client, write) *)
  phantoms : (int * int * bool, phantom) Hashtbl.t;
}

let mode_of_write write =
  if write then Spritely.State_table.Write else Spritely.State_table.Read

(* An NFS client touched the file: make sure the state table carries an
   implicit open for it, performing whatever callbacks that implies
   (write-backs from dirty SNFS clients, invalidations of their
   caches). The implicit open expires after the probe interval. *)
let note_nfs_access t ~ctx ~file ~client ~write =
  let key = (file, client, write) in
  let now = Sim.Engine.now t.engine in
  match Hashtbl.find_opt t.phantoms key with
  | Some p -> p.expires <- now +. t.probe_interval
  | None -> (
      let table = Snfs_server.state_table t.snfs in
      match Snfs_server.open_implicit t.snfs ~ctx ~file ~client ~write with
      | () ->
          let p = { expires = now +. t.probe_interval } in
          Hashtbl.replace t.phantoms key p;
          let rec expire () =
            let remaining = p.expires -. Sim.Engine.now t.engine in
            if remaining > 0.0 then begin
              Sim.Engine.sleep t.engine remaining;
              expire ()
            end
            else begin
              Hashtbl.remove t.phantoms key;
              try
                Spritely.State_table.close_file table ~file ~client
                  ~mode:(mode_of_write write)
              with Invalid_argument _ -> () (* file was removed meanwhile *)
            end
          in
          Sim.Engine.spawn t.engine ~name:"hybrid.phantom-close" expire
      | exception Spritely.State_table.Table_full ->
          (* no room to track this NFS client; it still gets served,
             just without consistency vis-a-vis SNFS clients *)
          ())

(* threads of each half: the SNFS service and the NFS one *)
let threads = 4

(* The NFS half: the basic procedures, data accesses first implying
   SNFS opens (Section 6.1); open and close from an NFS client are
   rejected, as a plain NFS server would — this is how hybrid clients
   probe. *)
let nfs_procs t core =
  let access p ~write (file_of : _ -> Wire.fh) =
    Wire.before p (fun ~caller ~ctx args ->
        note_nfs_access t ~ctx ~file:(file_of args).ino ~client:caller ~write)
  in
  Wire.basic core
  |> access Wire.Proc.read ~write:false fst
  |> access Wire.Proc.write ~write:true fst
  |> access Wire.Proc.setattr ~write:true fst
  |> access Wire.Proc.getattr ~write:false Fun.id
  (* a lookup is how NFS clients first reach a file: resolve the name
     and record the access *before* the real lookup runs, so the
     reply's attributes reflect any dirty blocks recalled from an SNFS
     client *)
  |> Wire.before Wire.Proc.lookup (fun ~caller ~ctx ((dir : Wire.fh), name) ->
         let fs = Wire.core_fs core in
         match Localfs.lookup ~ctx fs ~dir:dir.ino name with
         | ino ->
             (* directories need no consistency tracking *)
             if (Localfs.getattr ~ctx fs ino).Localfs.ftype = Localfs.File
             then note_nfs_access t ~ctx ~file:ino ~client:caller ~write:false
         | exception Localfs.Error _ -> ())

let serve rpc host ?(nfs_probe_interval = 150.0) ~fsid fs =
  let snfs = Snfs_server.serve rpc host ~threads ~fsid fs in
  let t =
    {
      snfs;
      engine = Netsim.Net.engine (Netsim.Rpc.net rpc);
      probe_interval = nfs_probe_interval;
      phantoms = Hashtbl.create 64;
    }
  in
  let core = Snfs_server.core snfs in
  ignore
    (Wire.serve rpc host ~prog:Nfs.Nfs_server.prog ~threads core
       (nfs_procs t core));
  t

let snfs t = t.snfs
let nfs_root_fh t = Wire.root_fh (Snfs_server.core t.snfs)
let phantom_opens t = Hashtbl.length t.phantoms
