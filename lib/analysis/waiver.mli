(** Per-finding waivers.

    A finding is waived by a comment containing
    [snfs-lint: allow <rule>] on the flagged line or the line directly
    above it. Anything after the rule name is free-form justification:

    {v (* snfs-lint: allow yield-race — b.lock serializes this path *) v}

    The rule name runs to the first character that cannot be part of
    one, so [allow determinism] never waives a hypothetical
    [determinism-strict] finding. [snfs-fanout: bounded <reason>] is
    the fan-out pass's spelling of [snfs-lint: allow fanout]. Only
    ordinary comments waive: the same text in a string literal or a
    doc comment (like the example above) is inert. *)

type t = {
  line : int;  (** 1-based line the waiver text sits on *)
  rule : string;  (** the rule it names *)
  text : string;  (** the waiver as written, up to the reason *)
}

val scan : string -> t list
(** the waivers in one source file, in source order; [[]] when the
    file does not lex *)

val covers : t -> rule:string -> line:int -> bool
(** whether the waiver suppresses a finding of [rule] on [line] (its
    own line or the next) *)
