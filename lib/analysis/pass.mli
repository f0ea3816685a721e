(** The pass interface the driver runs.

    A pass sees the whole parsed workspace at once (cross-file passes
    like interface-drift need it) plus the shared fact tables the
    driver pre-computes: the workspace's record declarations, the
    whole-program call graph and the interprocedural may-yield
    summaries. Passes return raw findings; waiver and baseline
    filtering is the driver's job. *)

type ctx = {
  files : Source.t list;  (** every parsed source file, sorted by path *)
  records : Records.t;
      (** the record types declared in the workspace, by label *)
  cg : Callgraph.t;  (** the whole-program call graph *)
  may_yield : (string, unit) Hashtbl.t;
      (** node ids whose call may reach a blocking point *)
}

type t = {
  name : string;  (** rule name findings carry, e.g. ["yield-race"] *)
  doc : string;  (** one-line description for [--list-passes] *)
  run : ctx -> Finding.t list;
}
