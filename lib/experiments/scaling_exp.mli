(** Client-scaling experiment (extension).

    Section 2.3 of the paper argues that by cutting server disk and CPU
    work per client, the Sprite consistency protocol should let one
    server sustain more simultaneously active clients (measurements of
    Sprite itself suggested ~4x, Section 5.2). This experiment puts N
    clients, each running an edit/compile-style loop against private
    files, on one server and measures per-client completion time and
    server utilization as N grows. *)

type point = {
  clients : int;
  avg_elapsed : float;  (** mean per-client completion time, seconds *)
  max_elapsed : float;
  server_cpu_util : float;  (** fraction of the run *)
  server_disk_util : float;
  total_rpcs : int;
}

(** One measurement: [clients] hosts each run eight cycles of the loop
    under the protocol (which must not be [Local]). *)
val run : protocol:Testbed.protocol -> clients:int -> unit -> point

(** The scaling table: NFS vs SNFS for 1, 2, 4, 8, 16 clients. *)
val table : unit -> string
