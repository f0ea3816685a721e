(** The external-sort benchmark of Section 5.3.

    Unix [sort] on a file too large for memory: read the input in
    chunks, sort each chunk into a run file under [/usr/tmp], then
    merge runs (multi-way, possibly multiple passes), writing new
    temporaries and deleting consumed ones, until a single sorted
    output remains. Temporary traffic grows faster than the input —
    the paper's Table 5-3 inputs of 281 k / 1408 k / 2816 k use 304 k /
    2170 k / 7764 k of temporary storage.

    The sort's shape and costs are constants, calibrated once against
    Table 5-3: runs of 64 KB, merged 8 at a time, at 8.5 ms of client
    CPU per KB to sort a run and 5.5 ms per KB through a merge. *)

type config = {
  input_bytes : int;
  input_path : string;  (** lives outside the file system under test *)
  output_path : string;
  tmp_dir : string;  (** the /usr/tmp under test *)
}

val default_config : config

type result = {
  elapsed : float;
  temp_bytes_written : int;  (** temporary bytes pushed through /usr/tmp *)
}

(** Create the input file (untimed). *)
val setup : App.t -> config -> unit

val run : App.t -> config -> result
