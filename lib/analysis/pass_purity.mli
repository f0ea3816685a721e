(** Core-purity pass.

    [lib/core] is the protocol model and [lib/check] the model checker
    that runs it: they must stay deterministic and comparable across
    runs, coupled to nothing but the model. The pass rejects, in those
    directories only:

    - any reference whose head module is [Unix], [Sys], [Sim],
      [Netsim], [Obs], [Random], [In_channel] or [Out_channel] — no
      I/O, no clock, no simulator coupling, no entropy;
    - printing entry points ([Printf.printf]/[eprintf]/[fprintf],
      [Format] likewise, [print_endline] and friends) — [sprintf] and
      [asprintf] stay legal;
    - toplevel mutable state ([ref], [Hashtbl.create], [Buffer],
      [Queue], [Stack], [Array.make], [Bytes.create] outside any
      function body) unless waived with a justification. *)

val pass : Pass.t
