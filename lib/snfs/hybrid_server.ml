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
      match
        Snfs_server.with_file_lock t.snfs file (fun () ->
            let result =
              Spritely.State_table.open_file table ~file ~client
                ~mode:(mode_of_write write)
            in
            Snfs_server.deliver_callbacks ~ctx t.snfs ~file
              result.Spritely.State_table.callbacks;
            result)
      with
      | result ->
          ignore result.Spritely.State_table.cache_enabled;
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

let serve rpc host ?(nfs_probe_interval = 150.0) ~fsid fs =
  let snfs = Snfs_server.serve rpc host ~threads ~fsid fs in
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let rec t =
    lazy
      (let handler ~caller ~ctx ~proc dec =
         let tt = Lazy.force t in
         let caller_addr = Netsim.Net.Host.addr caller in
         (* data accesses imply SNFS opens (Section 6.1) *)
         (if proc = Nfs.Wire.p_read || proc = Nfs.Wire.p_write
            || proc = Nfs.Wire.p_setattr || proc = Nfs.Wire.p_getattr
          then
            let fh = Nfs.Wire.dec_fh (Xdr.Dec.clone dec) in
            note_nfs_access tt ~ctx ~file:fh.Nfs.Wire.ino ~client:caller_addr
              ~write:(proc = Nfs.Wire.p_write || proc = Nfs.Wire.p_setattr)
          else if proc = Nfs.Wire.p_lookup then begin
            (* a lookup is how NFS clients first reach a file: resolve
               the name and record the access *before* the real lookup
               runs, so the reply's attributes reflect any dirty blocks
               recalled from an SNFS client *)
            let peek = Xdr.Dec.clone dec in
            let dir = Nfs.Wire.dec_fh peek in
            let name = Xdr.Dec.string peek in
            match
              Localfs.lookup ~ctx
                (Nfs.Wire.core_fs (Snfs_server.core snfs))
                ~dir:dir.Nfs.Wire.ino name
            with
            | ino ->
                (* directories need no consistency tracking *)
                let fs = Nfs.Wire.core_fs (Snfs_server.core snfs) in
                if (Localfs.getattr ~ctx fs ino).Localfs.ftype = Localfs.File
                then
                  note_nfs_access tt ~ctx ~file:ino ~client:caller_addr
                    ~write:false
            | exception Localfs.Error _ -> ()
          end);
         match
           Nfs.Wire.handle_basic (Snfs_server.core snfs) ~caller:caller_addr
             ~ctx ~proc dec
         with
         | Some reply -> reply
         | None ->
             (* open/close from an NFS client: reject, as a plain NFS
                server would — this is how hybrid clients probe *)
             let e = Xdr.Enc.create () in
             Nfs.Wire.enc_status e (Error Localfs.Stale);
             { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }
       in
       let _nfs_service =
         Netsim.Rpc.serve rpc host ~prog:Nfs.Nfs_server.prog ~threads handler
       in
       {
         snfs;
         engine;
         probe_interval = nfs_probe_interval;
         phantoms = Hashtbl.create 64;
       })
  in
  Lazy.force t

let snfs t = t.snfs
let nfs_root_fh t = Nfs.Wire.root_fh (Snfs_server.core t.snfs)
let phantom_opens t = Hashtbl.length t.phantoms
