let prog = "nfs"

type t = Wire.server

let serve rpc host ~fsid fs =
  (* 4 daemons, and only the basic procedures: an NFS server rejects
     open and close *)
  let srv = Wire.server rpc host ~prog ~threads:4 ~fsid fs in
  Wire.serve srv (Wire.basic srv);
  srv

let root_fh = Wire.root_fh
let service = Wire.service
