(** The SNFS server state table (paper Section 4.3).

    This is the paper's central contribution, implemented as a pure
    data structure: no I/O, no simulation dependencies. The SNFS server
    wraps it, performing the callback RPCs this module *prescribes*.

    Each file the server has recently seen has an entry recording its
    version numbers and a client-information block per client host
    (reader/writer open counts, whether that client was allowed to
    cache). {!open_file} and {!close_file} perform the state
    transitions of Table 4-1; [open_file] additionally returns the list
    of callbacks the server must deliver to other clients *before*
    replying, and whether the opening client may cache the file.

    The derived 7-state view ({!state}) matches the paper's
    nomenclature: CLOSED, CLOSED_DIRTY, ONE_READER, ONE_RDR_DIRTY,
    MULT_READERS, ONE_WRITER, WRITE_SHARED. One deliberate subtlety:
    after a write-sharing episode ends (say the writer closes, leaving
    one reader), the remaining clients keep caching *disabled* until
    they re-open — the server only grants cachability at open time — so
    a derived ONE_READER state can coexist with a cache-disabled
    client. *)

type client_id = int

type mode = Read | Write

type state =
  | Closed
  | Closed_dirty
  | One_reader
  | One_rdr_dirty
  | Mult_readers
  | One_writer
  | Write_shared

val state_to_string : state -> string

(** A callback the server must perform before completing the open that
    triggered it. [writeback] asks the target to return dirty blocks;
    [invalidate] asks it to drop its cache and stop caching. *)
type callback = { target : client_id; writeback : bool; invalidate : bool }

type open_result = {
  cache_enabled : bool;  (** may the opening client cache this file? *)
  version : Version.t;  (** latest version (bumped if opening to write) *)
  prev_version : Version.t;
  callbacks : callback list;  (** deliver these, then reply *)
}

type t

(** [create ()] makes an empty table. *)
val create : unit -> t

(** The bound on a table's entries, fixed at Section 4.3.1's 1000
    files: an open that would exceed it reclaims an entry or raises
    {!Table_full}. *)
val max_entries : int

val entry_count : t -> int

(** Independent deep copy. The model checker ({!module:Check}, when
    linked) branches the table at every explored interleaving, so this
    must be cheap and must share no mutable state with the original. *)
val copy : t -> t

(** Approximate kernel-memory footprint, using the paper's accounting
    (Section 4.5: 68 bytes per entry plus a client block per client,
    "up to 1000 simultaneously open files ... about 70 kbytes"). *)
val approx_bytes : t -> int

(** Raised by {!open_file} when the table is full and nothing is
    reclaimable (every entry has the file actively open). *)
exception Table_full

(** [open_file t ~file ~client ~mode] records an open and returns the
    consistency verdict and required callbacks. If the table is full,
    closed entries are reclaimed first; the reclamation callbacks are
    prepended to the result's list. *)
val open_file : t -> file:int -> client:client_id -> mode:mode -> open_result

(** [close_file t ~file ~client ~mode] records a close; [mode] must
    match the corresponding open (Section 3.1). A final close by a
    cache-enabled writer records that client as last writer
    (CLOSED_DIRTY). Unknown opens raise [Invalid_argument]. *)
val close_file : t -> file:int -> client:client_id -> mode:mode -> unit

(** The last writer has returned / discarded its dirty blocks (the
    server observed a successful write-back callback, or the client
    reported the data flushed): CLOSED_DIRTY decays to CLOSED. *)
val note_clean : t -> file:int -> client:client_id -> unit

(** The file was removed; forget it entirely. *)
val remove_file : t -> file:int -> unit

(** Forget everything one client holds (it crashed, Section 3.2). Any
    entry for which it was the (possibly dirty) last writer is marked
    {!was_inconsistent}. *)
val forget_client : t -> client_id -> unit

(** True if a crash of the last writer may have lost dirty data for
    this file; cleared on the next version bump. *)
val was_inconsistent : t -> file:int -> bool

(** {2 Observation} *)

(** Derived paper-style state (Closed if the file has no entry). *)
val state : t -> file:int -> state

val version_of : t -> file:int -> Version.t

(** Whether the given client was granted cachability at its last open
    of this file (false if unknown). *)
val can_cache : t -> file:int -> client:client_id -> bool

(** Clients with the file open, with (readers, writers) counts. *)
val openers : t -> file:int -> (client_id * int * int) list

val last_writer : t -> file:int -> client_id option

(** Files with live entries (for recovery tests and reclamation). *)
val files : t -> int list

(** The least-recently-active entry that still has clients open, with
    those clients — the candidate for a Section 6.2 "relinquish"
    callback when the table fills up with apparently-open files left
    behind by delayed-close clients. Activity is measured by operation
    order, not wall-clock time (this module has no clock). *)
val least_recently_active_open : t -> (int * client_id list) option

(** {2 Crash recovery (Section 2.4 / Welch's mechanism)}

    After a server reboot the table is reconstructed from the clients:
    each client reports, per file, its open counts, whether it was
    caching, and whether it may hold dirty blocks. *)

type client_report = {
  r_client : client_id;
  r_file : int;
  r_readers : int;
  r_writers : int;
  r_can_cache : bool;
  r_dirty : bool;  (** client may hold dirty blocks (open or closed) *)
  r_version : Version.t;  (** version the client holds *)
}

(** Current table as reports (what clients would collectively say). *)
val to_reports : t -> client_report list

(** Rebuild a table from client reports. The version counter resumes
    above the highest reported version. *)
val of_reports : client_report list -> t

(** Merge one report into a (possibly freshly rebooted) table — the
    incremental form servers use while clients trickle in their reopen
    messages during the recovery grace period. *)
val merge_report : t -> client_report -> unit

(** Structural equality of the consistency-relevant content, for
    recovery tests. *)
val equal : t -> t -> bool
