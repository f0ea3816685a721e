(** Adapter exposing a {!Localfs.t} through the GFS interface — the
    "local disk" file-system type.

    Data writes use the traditional Unix delayed-write policy (Section
    4.2.3); the periodic syncer of the underlying [Localfs] decides
    when they reach the disk. *)

val make : Localfs.t -> Fs.t
