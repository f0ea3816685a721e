(** The Andrew benchmark (Howard et al. 1988), as used in Section 5.2 —
    the Ousterhout-modified variant with a fixed-cost "portable
    compiler" so results are comparable across systems.

    Five phases over a source tree:
    - {b MakeDir}: build a target subtree of identical structure;
    - {b Copy}: copy every file into the target subtree;
    - {b ScanDir}: recursively stat everything (no data reads);
    - {b ReadAll}: read every byte of every file once;
    - {b Make}: "compile" the C sources (read source + shared headers,
      compute, produce and delete a compiler temporary in /tmp, write a
      .o) and link the result.

    The simulated compiler's costs are constants, chosen once so the
    local-disk column lands near Table 5-1's and held fixed across
    protocols: in seconds of client CPU, 0.3 per directory made, 0.12
    per file copied, 0.13 per entry scanned, 0.25 per file read plus
    0.02 per KB, 5.5 per compile plus 1.0 per KB of source, and 12 to
    link. A compile reads 10 headers and writes a temporary 30 times
    and an object 12 times the size of its source. *)

type config = {
  tree : File_tree.spec;
  src_root : string;
  dst_root : string;
  tmp_dir : string;  (** compiler temporaries go here (Section 5.2) *)
}

val default_config : config

type phase_times = {
  makedir : float;
  copy : float;
  scandir : float;
  readall : float;
  make : float;
}

val total : phase_times -> float

(** Create the source tree (not part of the timed benchmark). *)
val setup : App.t -> config -> File_tree.tree

(** Run the five phases and return per-phase elapsed virtual time. *)
val run : App.t -> config -> File_tree.tree -> phase_times
