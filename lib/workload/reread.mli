(** The write-close-reread microbenchmark of Section 5.3's last
    paragraph: write a large file, close it, then open and read either
    the same file or a different (pre-existing) one of equal size.

    On the paper's NFS, the elapsed times were indistinguishable —
    evidence that the cost of read misses after the invalidate-on-close
    bug is negligible next to the cost of writing through.

    Both files are 1 MB, in [/data]. *)

type result = {
  write_close : float;  (** creating + closing the file *)
  reread_same : float;  (** reopening and reading the same file *)
  read_other : float;  (** reading a different file of equal size *)
}

val run : App.t -> result
