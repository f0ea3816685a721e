(** The record types declared in the workspace, so a pass judges a
    label by the type it names instead of by its bare name: without a
    type checker, [{ Netsim.Rpc.data = d; bulk = 0 }] would otherwise
    count as mutable because some other record declares
    [mutable data].

    A label [M.l] names the records declared in a module whose innermost
    name is [M] (so [Netsim.Rpc.l] and [Rpc.l] agree); a bare [l], or
    an [M] that declares no [l], names every record with a label [l]. *)

type t

(** The record declarations of every parsed file, under the module path
    their file and submodules give them. *)
val collect : Source.t list -> t

(** [label_mutable t path]: is the label [path] (as written, qualified
    or not) declared [mutable] in a record it can name? *)
val label_mutable : t -> string list -> bool

(** [literal_mutable t labels ~closed]: does a record literal with
    these labels build a record that has a mutable field? The type is
    the one its qualified label (else its first label) names whose
    labels include all of [labels] — exactly them when [closed], that
    is, without [with]. When no declaration fits, each label is judged
    by {!label_mutable}. *)
val literal_mutable : t -> string list list -> closed:bool -> bool
