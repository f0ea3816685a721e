(* Cross-protocol consistency oracle (lib/check/oracle).

   Op sequences derived from the model checker's state-space walk are
   replayed through the real simulated NFS/SNFS/RFS/Kent client-server
   stacks and diffed against a serial reference model. The strict
   protocols (SNFS, RFS, Kent) must never serve a stale read; NFS
   staleness is the paper's documented divergence and is only
   reported. Post-quiesce server contents must be exact for all four
   (NFS writes through on close). *)

module O = Oracle
module Stack = Experiments.Stack

(* hand-written sequences covering the interesting shapes: write
   sharing, sequential write-read handoff, remove-under-open,
   client crash (forget) with a dirty file *)
let handoffs =
  Check.Invariant.
    [
      (* sequential write-read: the Table 5-4 pattern *)
      [
        Open (0, 0, Spritely.State_table.Write);
        Close (0, 0, Spritely.State_table.Write);
        Open (1, 0, Spritely.State_table.Read);
        Close (1, 0, Spritely.State_table.Read);
        Open (2, 0, Spritely.State_table.Write);
        Close (2, 0, Spritely.State_table.Write);
        Open (0, 0, Spritely.State_table.Read);
      ];
      (* concurrent write sharing on f0, private traffic on f1 *)
      [
        Open (0, 0, Spritely.State_table.Write);
        Open (1, 0, Spritely.State_table.Read);
        Open (2, 1, Spritely.State_table.Write);
        Close (2, 1, Spritely.State_table.Write);
        Close (0, 0, Spritely.State_table.Write);
        Open (2, 0, Spritely.State_table.Read);
      ];
      (* dirty writer crashes; survivors must still see the server *)
      [
        Open (0, 0, Spritely.State_table.Write);
        Close (0, 0, Spritely.State_table.Write);
        Forget 0;
        Open (1, 0, Spritely.State_table.Read);
      ];
      (* remove with a reader still holding the file open *)
      [
        Open (0, 1, Spritely.State_table.Write);
        Close (0, 1, Spritely.State_table.Write);
        Open (1, 1, Spritely.State_table.Read);
        Remove 1;
        Open (2, 0, Spritely.State_table.Write);
        Close (2, 0, Spritely.State_table.Write);
      ];
    ]

(* The table machine's op paths to every 251st distinct state of a
   breadth-first walk of its first 5,000 states, without the empty
   path to the initial state: the first 16, as [Check.Explore.run
   ~max_states:5_000] visits them. Written out once so the oracle's
   pinned outcome does not move with the explorer's order. *)
let checker_paths =
  let read = Spritely.State_table.Read
  and write = Spritely.State_table.Write in
  Check.Invariant.
    [
      [ Open (0, 0, write); Open (2, 0, read); Open (2, 1, read) ];
      [ Open (0, 1, read); Open (1, 0, read); Open (2, 0, read) ];
      [ Open (1, 1, read); Open (1, 1, read); Open (2, 1, write) ];
      [ Open (0, 0, write); Close (0, 0, write);
        Open (1, 1, write); Open (2, 1, read) ];
      [ Open (0, 0, write); Open (0, 1, write);
        Open (0, 1, read); Open (0, 1, read) ];
      [ Open (0, 0, write); Open (1, 0, read);
        Open (2, 0, read); Open (2, 0, read) ];
      [ Open (0, 0, read); Open (0, 0, read);
        Open (2, 0, write); Open (0, 1, write) ];
      [ Open (0, 0, read); Open (1, 0, read);
        Open (1, 1, write); Open (2, 0, read) ];
      [ Open (0, 1, write); Open (0, 0, write); Open (1, 1, read); Forget 0 ];
      [ Open (0, 1, write); Open (0, 1, read);
        Open (2, 0, read); Open (2, 1, read) ];
      [ Open (0, 1, write); Open (2, 0, read);
        Open (0, 1, write); Open (2, 1, read) ];
      [ Open (0, 1, read); Open (1, 0, read);
        Open (1, 1, read); Open (2, 1, read) ];
      [ Open (1, 0, write); Close (1, 0, write);
        Open (1, 1, write); Open (1, 1, write) ];
      [ Open (1, 0, read); Open (0, 1, write); Forget 0; Open (1, 1, read) ];
      [ Open (1, 1, write); Open (0, 0, read);
        Open (1, 0, read); Open (2, 1, read) ];
      [ Open (1, 1, read); Open (1, 0, write);
        Close (1, 0, write); Open (1, 1, read) ];
    ]

let sequences () = handoffs @ checker_paths

(* The exact outcome of every protocol over [sequences ()], pinned so
   that a change to how the stacks are wired cannot shift a single
   observation. NFS's stale count is the documented divergence: it is
   pinned, not required to be zero. *)
let pinned = { O.reads = 41; stale = 0; server_divergence = 0 }

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Format.fprintf ppf "{reads=%d; stale=%d; server_divergence=%d}"
        o.O.reads o.O.stale o.O.server_divergence)
    ( = )

let test_strict proto () =
  let o = O.replay_all proto (sequences ()) in
  Alcotest.(check bool) "exercised some reads" true (o.O.reads > 0);
  Alcotest.(check int)
    (Stack.kind_name proto ^ ": stale reads")
    0 o.O.stale;
  Alcotest.(check int)
    (Stack.kind_name proto ^ ": server divergence after quiesce")
    0 o.O.server_divergence;
  Alcotest.check outcome (Stack.kind_name proto ^ ": exact outcome")
    pinned o

let test_nfs () =
  let o = O.replay_all Stack.Nfs (sequences ()) in
  Alcotest.(check bool) "exercised some reads" true (o.O.reads > 0);
  (* staleness is documented, not required to be zero; write-through
     still makes the settled server state exact *)
  Printf.printf "oracle: nfs served %d/%d stale reads (documented)\n%!"
    o.O.stale o.O.reads;
  Alcotest.(check int) "nfs: server divergence after quiesce" 0
    o.O.server_divergence;
  Alcotest.check outcome "nfs: exact outcome" pinned o

let () =
  Alcotest.run "oracle"
    [
      ( "checker-derived sequences",
        [
          Alcotest.test_case "snfs: no stale reads, exact server" `Quick
            (test_strict Stack.Snfs);
          Alcotest.test_case "rfs: no stale reads, exact server" `Quick
            (test_strict Stack.Rfs);
          Alcotest.test_case "kent: no stale reads, exact server" `Quick
            (test_strict Stack.Kent);
          Alcotest.test_case "nfs: staleness documented, exact server" `Quick
            test_nfs;
        ] );
    ]
