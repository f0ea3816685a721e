let prog = "nfs"

type t = { core : Wire.server_core; srv : Wire.server }

let serve rpc host ~fsid fs =
  let core = Wire.make_server_core ~fsid fs () in
  (* 4 daemons, and only the basic procedures: an NFS server rejects
     open and close *)
  let srv = Wire.serve rpc host ~prog ~threads:4 core (Wire.basic core) in
  { core; srv }

let root_fh t = Wire.root_fh t.core
let service t = Wire.service t.srv
