let prog = "nfs"

type t = {
  core : Wire.server_core;
  host : Netsim.Net.Host.t;
  service : Netsim.Rpc.service;
}

let serve rpc host ?(threads = 4) ~fsid fs =
  let core = Wire.make_server_core ~fsid fs () in
  let handler ~caller ~ctx ~proc dec =
    match
      Wire.handle_basic core ~caller:(Netsim.Net.Host.addr caller) ~ctx ~proc
        dec
    with
    | Some reply -> reply
    | None ->
        (* an NFS server rejects open/close: this is how a hybrid
           client discovers it is not talking to SNFS (Section 6.1) *)
        let e = Xdr.Enc.create () in
        Wire.enc_status e (Error Localfs.Stale);
        { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }
  in
  let service = Netsim.Rpc.serve rpc host ~prog ~threads handler in
  { core; host; service }

let root_fh t = Wire.root_fh t.core
let service t = t.service
let counters t = Netsim.Rpc.counters t.service
