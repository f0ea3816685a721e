(** Mount table and pathname resolution.

    Pathnames are absolute, slash-separated. Resolution picks the
    longest-prefix mount and then walks the remaining components one
    [lookup] at a time — the NFS way, which is why roughly half of all
    RPC calls in Table 5-2 are lookups.

    An optional directory-name lookup cache (dnlc) can be enabled; the
    paper's systems did not have one ("any mechanism that reduced the
    number of lookups would improve performance", Section 5.2), so it
    is off by default and serves as an ablation. *)

type t

val create : unit -> t

(** [mount t ~at fs] attaches [fs] at absolute path [at] (e.g. "/",
    "/tmp"). Mounts must not duplicate paths. *)
val mount : t -> at:string -> Fs.t -> unit

(** Enable the directory-name lookup cache ablation. *)
val enable_name_cache : t -> unit

(** Resolve a full path to its vnode. Raises [Localfs.Error Noent] for
    missing components. *)
val resolve : t -> string -> Fs.vn

(** Resolve the parent directory of a path, returning the parent vnode
    and the final component name; used by create/remove/rename. *)
val resolve_parent : t -> string -> Fs.vn * string

(** Invalidate any name-cache entry for this path (after remove or
    rename). Harmless when the cache is off. *)
val uncache : t -> string -> unit

