(** NFS / SNFS coexistence on one server (paper Section 6.1).

    A hybrid server exports the same file system under both protocols.
    SNFS clients discover the server speaks SNFS because their [open]
    succeeds; plain NFS clients never send one and get ordinary NFS.

    The tricky part is simultaneous access to one file from both kinds
    of client, because the NFS clients cannot participate in the
    consistency protocol. Following the paper's recipe:

    - any NFS data access to a file is treated as an *implicit SNFS
      open* by that client, driving the same state table — so an NFS
      read of a CLOSED_DIRTY file first recalls the last writer's dirty
      blocks, and an NFS write to a file cached by SNFS clients
      invalidates their caches before proceeding;
    - the server remembers each NFS client's access "for a period no
      less than the longest reasonable NFS attributes-probe interval":
      the implicit open is closed only after [nfs_probe_interval]
      seconds of inactivity, so an SNFS client opening the file during
      that window is correctly denied cachability (the NFS client might
      still be using its probabilistically-consistent cache). *)

type t

val serve :
  Netsim.Rpc.t ->
  Netsim.Net.Host.t ->
  ?threads:int ->
  ?nfs_probe_interval:float ->
  fsid:int ->
  Localfs.t ->
  t

(** The SNFS half (serve SNFS clients from its root file handle). *)
val snfs : t -> Snfs_server.t

(** Root file handle as seen by plain NFS clients. *)
val nfs_root_fh : t -> Nfs.Wire.fh

(** Implicit SNFS opens currently held on behalf of NFS clients. *)
val phantom_opens : t -> int
