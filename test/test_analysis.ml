(* The AST static-analysis framework (lib/analysis).

   Every pass is proven on a seeded bug (the finding fires, with the
   right rule, on an inline fixture) and on the corresponding clean
   variant (no finding). Fixtures are inline strings fed through
   Driver.analyze, so nothing here can leak into the real tree scan.
   The whole-program substrate gets its own unit tests (call-graph
   resolution through aliases, opens, local opens and modules, wrapper
   prefixes and functor application, and the nodes of unnamed
   bindings), and the interprocedural yield-race pass is proven
   strictly stronger than the legacy per-module judgement on a
   cross-library fixture. Also covers waivers, the baseline file,
   parse-error reporting, byte-identical JSON and SARIF output across
   runs, per-pass stats under an injected clock, and the property
   @lint enforces: the built source tree is clean modulo the committed
   fan-out baseline. *)

module D = Analysis.Driver
module F = Analysis.Finding
module B = Analysis.Baseline
module C = Analysis.Callgraph

let input path src = { D.path; src }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let cg_of inputs =
  C.build
    (List.map (fun i -> Analysis.Source.parse ~path:i.D.path i.D.src) inputs)

let run inputs = (D.analyze inputs).D.findings

let rule_findings name inputs =
  List.filter (fun f -> f.F.rule = name) (run inputs)

let count name inputs = List.length (rule_findings name inputs)

let check_fires msg name inputs =
  match rule_findings name inputs with
  | [] -> Alcotest.fail (msg ^ ": expected a " ^ name ^ " finding, got none")
  | _ :: _ -> ()

let check_quiet msg name inputs =
  match rule_findings name inputs with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        (Printf.sprintf "%s: unexpected finding %s" msg (F.to_string f))

(* ---- determinism ---- *)

let test_determinism_seeded () =
  List.iter
    (fun call ->
      check_fires call "determinism"
        [ input "lib/obs/clock.ml" (Printf.sprintf "let now () = %s ()\n" call) ])
    [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Random.self_init" ]

let test_determinism_alias_flagged () =
  (* referencing, not just calling: an alias cannot smuggle the clock *)
  check_fires "alias" "determinism"
    [ input "lib/obs/clock.ml" "let now = Unix.gettimeofday\n" ];
  check_fires "Stdlib-qualified" "determinism"
    [ input "lib/obs/clock.ml" "let p = Stdlib.print_endline\n" ]

let test_determinism_scoping () =
  let src = "let d () = Sys.getenv_opt \"DEBUG\"\n" in
  check_fires "env read in lib/" "determinism" [ input "lib/a.ml" src ];
  check_quiet "env read in test/" "determinism" [ input "test/t.ml" src ];
  check_quiet "wall clock in bin/" "determinism"
    [ input "bin/main.ml" "let t = Unix.gettimeofday ()\n" ];
  check_quiet "host time in perfbench/" "determinism"
    [ input "perfbench/bench.ml" "let now () = Sys.time ()\n" ];
  check_fires "host time in lib/" "determinism"
    [ input "lib/sim/clock.ml" "let now () = Sys.time ()\n" ];
  check_fires "wall clock in test/" "determinism"
    [ input "test/t.ml" "let t = Unix.gettimeofday ()\n" ];
  check_fires "eprintf in lib/" "determinism"
    [ input "lib/a.ml" "let d x = Printf.eprintf \"%d\" x\n" ];
  check_quiet "sprintf in lib/" "determinism"
    [ input "lib/a.ml" "let d x = Printf.sprintf \"%d\" x\n" ]

let test_determinism_strings_inert () =
  (* the parser, not a text scan: prose never trips the pass *)
  check_quiet "comments and strings" "determinism"
    [
      input "lib/a.ml"
        "(* Unix.gettimeofday would be wrong here *)\n\
         let doc = \"call Sys.time ()\"\n";
    ]

(* ---- hashtbl-order ---- *)

let test_hashtbl_order_seeded () =
  check_fires "iter into sink" "hashtbl-order"
    [
      input "lib/srv/cb.ml"
        "let flush t =\n\
        \  Hashtbl.iter (fun target cb -> deliver_callback target cb) \
         t.pending\n";
    ]

let test_hashtbl_order_fold_dataflow () =
  (* taint flows through let-bindings and List transforms *)
  check_fires "fold -> let -> rev -> iter sink" "hashtbl-order"
    [
      input "lib/srv/cb.ml"
        "let flush t =\n\
        \  let pending = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl \
         [] in\n\
        \  let ordered = List.rev pending in\n\
        \  List.iter (fun (k, v) -> emit k v) ordered\n";
    ];
  check_fires "Inttbl fold -> iter sink" "hashtbl-order"
    [
      input "lib/srv/cb.ml"
        "let flush t =\n\
        \  Sim.Inttbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []\n\
        \  |> List.iter (fun (k, v) -> emit k v)\n";
    ]

let test_hashtbl_order_sort_cleanses () =
  check_quiet "sorted pipeline" "hashtbl-order"
    [
      input "lib/srv/cb.ml"
        "let flush t =\n\
        \  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pending []\n\
        \  |> List.sort compare\n\
        \  |> List.iter (fun (target, cb) -> deliver_callback target cb)\n";
    ];
  check_quiet "sorted via binding" "hashtbl-order"
    [
      input "lib/srv/cb.ml"
        "let flush t =\n\
        \  let pending = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl \
         [] in\n\
        \  let ordered = List.sort compare pending in\n\
        \  List.iter (fun (k, v) -> emit k v) ordered\n";
    ]

let test_hashtbl_order_no_sink () =
  check_quiet "counting fold" "hashtbl-order"
    [
      input "lib/srv/cb.ml"
        "let size t = Hashtbl.fold (fun _ _ n -> n + 1) t.blocks 0\n";
    ]

(* ---- callgraph ---- *)

let test_callgraph_nodes_and_edges () =
  let cg =
    cg_of
      [
        input "lib/x/a.ml" "let f x = x + 1\nlet g y = f y\n";
        input "lib/x/b.ml" "module X = A\nlet h y = X.f y\n";
        input "lib/x/c.ml" "open A\nlet k y = f (A.g y)\n";
      ]
  in
  (match List.find_opt (fun n -> n.C.id = "A.f") (C.nodes cg) with
  | Some n ->
      Alcotest.(check string) "node file" "lib/x/a.ml" n.C.path;
      Alcotest.(check int) "node line" 1 n.C.line
  | None -> Alcotest.fail "A.f missing from the graph");
  Alcotest.(check (list string)) "bare ident resolves in-module" [ "A.f" ]
    (C.sync_refs cg "A.g");
  Alcotest.(check (list string)) "module alias resolves" [ "A.f" ]
    (C.sync_refs cg "B.h");
  Alcotest.(check (list string)) "open brings bare idents in scope"
    [ "A.f"; "A.g" ] (C.sync_refs cg "C.k")

let test_callgraph_wrapper_and_defer () =
  let cg =
    cg_of
      [
        input "lib/net/rpc.ml" "let send rpc x = (rpc, x)\nlet call rpc x = send rpc x\n";
        input "lib/u/user.ml"
          "let tick () = ()\n\
           let go rpc e =\n\
          \  Sim.Engine.spawn e ~name:\"bg\" (fun () -> tick ());\n\
          \  Netsim.Rpc.call rpc 1\n";
      ]
  in
  (* [Netsim.Rpc.call]: no module [Netsim] in the tree, so the unknown
     wrapper prefix is dropped until the tree module [Rpc] matches *)
  Alcotest.(check (list string)) "wrapper prefix dropped" [ "Rpc.call" ]
    (C.resolve_in cg ~node:"User.go" [ "Netsim"; "Rpc"; "call" ]);
  Alcotest.(check (list string)) "spawned thunk excluded from sync refs"
    [ "Rpc.call" ]
    (C.sync_refs cg "User.go");
  Alcotest.(check bool) "but still reached through full refs" true
    (Hashtbl.mem (C.reachable cg [ ("root", "User.go") ]) "User.tick")

let test_callgraph_functor () =
  let cg =
    cg_of
      [
        input "lib/x/impl.ml" "let v () = 1\n";
        input "lib/x/f.ml"
          "module Make (S : sig val v : unit -> int end) = struct\n\
          \  let get () = S.v ()\n\
           end\n";
        input "lib/x/user.ml" "module M = F.Make (Impl)\nlet go () = M.get ()\n";
      ]
  in
  (* parameter-qualified references are over-approximated against every
     module the functor is applied to outside test/ *)
  Alcotest.(check (list string)) "functor argument substituted"
    [ "Impl.v" ]
    (C.sync_refs cg "F.Make.get");
  Alcotest.(check (list string)) "application alias resolves into the functor"
    [ "F.Make.get" ]
    (C.sync_refs cg "User.go");
  let closure = C.reachable cg [ ("root", "User.go") ] in
  List.iter
    (fun id ->
      Alcotest.(check bool) ("reaches " ^ id) true (Hashtbl.mem closure id))
    [ "User.go"; "F.Make.get"; "Impl.v" ]

(* local opens and modules scope the references beneath them, and a
   toplevel binding that binds no single name is a node too *)
let test_callgraph_local_scopes () =
  let cg =
    cg_of
      [
        input "lib/x/a.ml" "let f x = x + 1\n";
        input "lib/x/f.ml"
          "module Make (S : sig val f : int -> int end) = struct\n\
          \  let run x = S.f x\n\
           end\n";
        input "lib/x/c.ml"
          "let k y = A.(f y)\n\
           let l y = let open A in f y\n\
           let m y = let module X = A in X.f y\n\
           let n y = let module M = F.Make (A) in M.run y\n";
        input "bin/main.ml" "let () = ignore (A.f 1)\nlet u, v = (A.f 2, 3)\n";
      ]
  in
  List.iter
    (fun (id, what) ->
      Alcotest.(check (list string)) what [ "A.f" ] (C.sync_refs cg id))
    [
      ("C.k", "M.( ... ) opens M");
      ("C.l", "let open M in opens M");
      ("C.m", "let module X = M in aliases M");
      ("F.Make.run", "let module X = F (A) in applies F to A");
    ];
  Alcotest.(check (list string)) "the local functor alias resolves into F"
    [ "F.Make.run" ] (C.sync_refs cg "C.n");
  Alcotest.(check (list (pair string (list string))))
    "let () and a tuple binding carry their refs"
    [
      ("<toplevel:1>", [ "A.f" ]); ("u", [ "A.f" ]); ("v", [ "A.f" ]);
    ]
    (List.filter_map
       (fun n ->
         if n.C.path = "bin/main.ml" then Some (n.C.name, C.sync_refs cg n.C.id)
         else None)
       (C.nodes cg))

(* same-named modules in two libraries are one node id: its references
   are both bindings' *)
let test_callgraph_shared_id () =
  let cg =
    cg_of
      [
        input "lib/a/trace.ml" "let f () = Foo.x ()\n";
        input "lib/b/trace.ml" "let f () = Bar.y ()\n";
        input "lib/c/foo.ml" "let x () = ()\n";
        input "lib/d/bar.ml" "let y () = ()\n";
      ]
  in
  Alcotest.(check (list string)) "both bodies' references" [ "Bar.y"; "Foo.x" ]
    (C.refs cg "Trace.f")

(* ---- yield-race ---- *)

let gnode_type = "type gnode = { mutable g_version : int }\n"

let test_yield_race_seeded () =
  (* the classic stale-attribute race: snapshot a mutable field, block
     on an RPC, use the snapshot as if still current *)
  check_fires "stale read across RPC" "yield-race"
    [
      input "lib/snfs/x.ml"
        (gnode_type
       ^ "let refresh t g =\n\
          \  let v = g.g_version in\n\
          \  let attrs = Nfs.Wire.getattr (call t) (fh_of t g) in\n\
          \  apply t g attrs v\n");
    ]

let test_yield_race_qualified_field () =
  (* [g.X.g_version] names the immutable field of [X.gnode], though
     [Y.gnode] declares one of the same name mutable *)
  let types =
    [
      input "lib/snfs/x.ml" "type gnode = { g_version : int }\n";
      input "lib/snfs/y.ml" gnode_type;
    ]
  in
  let refresh field =
    input "lib/snfs/z.ml"
      ("let refresh t g =\n\
       \  let v = g." ^ field ^ " in\n\
       \  let attrs = Nfs.Wire.getattr (call t) (fh_of t g) in\n\
       \  apply t g attrs v\n")
  in
  check_quiet "immutable field, qualified" "yield-race"
    (types @ [ refresh "X.g_version" ]);
  check_fires "mutable field, qualified" "yield-race"
    (types @ [ refresh "Y.g_version" ])

let test_yield_race_reread_ok () =
  check_quiet "re-read after the yield point" "yield-race"
    [
      input "lib/snfs/x.ml"
        (gnode_type
       ^ "let refresh t g =\n\
          \  let v = g.g_version in\n\
          \  consider t v;\n\
          \  let attrs = Nfs.Wire.getattr (call t) (fh_of t g) in\n\
          \  let v = g.g_version in\n\
          \  apply t g attrs v\n");
    ]

let test_yield_race_claim_and_clear_ok () =
  (* read-then-overwrite is an ownership transfer, not a cached view *)
  check_quiet "xid allocation idiom" "yield-race"
    [
      input "lib/netsim/x.ml"
        "type t = { mutable next_xid : int }\n\
         let issue t rpc =\n\
        \  let xid = t.next_xid in\n\
        \  t.next_xid <- xid + 1;\n\
        \  Netsim.Rpc.call rpc ~xid;\n\
        \  log xid\n";
    ];
  check_quiet "take-and-clear of a pending list" "yield-race"
    [
      input "lib/snfs/x.ml"
        "type g = { mutable g_unsent : int list }\n\
         let release t g =\n\
        \  let unsent = g.g_unsent in\n\
        \  g.g_unsent <- [];\n\
        \  List.iter (fun u -> Nfs.Wire.snfs_close (call t) u) unsent\n";
    ]

let test_yield_race_hashtbl_and_ref () =
  check_fires "Hashtbl.find across sleep" "yield-race"
    [
      input "lib/a.ml"
        "let f t e k =\n\
        \  let b = Hashtbl.find t.blocks k in\n\
        \  Sim.Engine.sleep e 1.0;\n\
        \  use b\n";
    ];
  check_fires "ref deref across sleep" "yield-race"
    [
      input "lib/a.ml"
        "let f counter e =\n\
        \  let v = !counter in\n\
        \  Sim.Engine.sleep e 1.0;\n\
        \  ignore v\n";
    ];
  check_quiet "ref claimed before sleep" "yield-race"
    [
      input "lib/a.ml"
        "let f counter e =\n\
        \  let v = !counter in\n\
        \  counter := 0;\n\
        \  Sim.Engine.sleep e 1.0;\n\
        \  ignore v\n";
    ]

let test_yield_race_local_wrapper_fixpoint () =
  (* the per-module fixpoint: [call] blocks because its body does *)
  check_fires "local blocking wrapper" "yield-race"
    [
      input "lib/snfs/x.ml"
        (gnode_type
       ^ "let call t ~proc args = Netsim.Rpc.call t.rpc ~proc args\n\
          let refresh t g =\n\
          \  let v = g.g_version in\n\
          \  let r = call t ~proc:1 g in\n\
          \  apply t r v\n");
    ]

let test_yield_race_deferred_lambda_ok () =
  (* Engine.spawn's thunk runs later: spawning does not block *)
  check_quiet "spawned thunk does not cross the caller" "yield-race"
    [
      input "lib/a.ml"
        (gnode_type
       ^ "let f t g e =\n\
          \  let v = g.g_version in\n\
          \  Sim.Engine.spawn e ~name:\"bg\" (fun () ->\n\
          \      Sim.Engine.sleep e 1.0);\n\
          \  use v\n");
    ]

let test_yield_race_scope () =
  check_quiet "test/ is out of scope" "yield-race"
    [
      input "test/t.ml"
        (gnode_type
       ^ "let f g e =\n\
          \  let v = g.g_version in\n\
          \  Sim.Engine.sleep e 1.0;\n\
          \  use v\n");
    ]

let test_yield_race_bump_cell () =
  (* the last_heard idiom: a per-caller cell fetched before a yield is
     *stored into* afterwards — updating a persistent identity object,
     not consuming a stale snapshot *)
  check_quiet "ref bump cell store after yield" "yield-race"
    [
      input "lib/snfs/x.ml"
        "let heartbeat t e k =\n\
        \  let cell = Hashtbl.find t.last_heard k in\n\
        \  Sim.Engine.sleep e 1.0;\n\
        \  cell := Sim.Engine.now e\n";
    ];
  check_quiet "setfield bump cell store after yield" "yield-race"
    [
      input "lib/snfs/x.ml"
        "type c = { mutable hits : int }\n\
         let bump t e k =\n\
        \  let cell = Hashtbl.find t.cells k in\n\
        \  Sim.Engine.sleep e 1.0;\n\
        \  cell.hits <- 1\n";
    ];
  (* reading the stale cell contents is still a race *)
  check_fires "stale bump-cell *read* still fires" "yield-race"
    [
      input "lib/snfs/x.ml"
        "let last t e k =\n\
        \  let cell = Hashtbl.find t.last_heard k in\n\
        \  Sim.Engine.sleep e 1.0;\n\
        \  ignore !cell\n";
    ]

let test_yield_race_wrapper_idioms () =
  (* the engine clock cell: a timestamp snapshot labels the moment of
     capture; using it after a yield is how latencies are measured, not
     a stale-state bug *)
  check_quiet "clock snapshot across a yield" "yield-race"
    [
      input "lib/obs/x.ml"
        "let measure t e =\n\
        \  let t0 = Sim.Engine.now e in\n\
        \  Sim.Engine.sleep e 1.0;\n\
        \  record t (Sim.Engine.now e -. t0)\n";
    ];
  (* the pooled Xdr accessor: Domain.DLS.get returns this domain's own
     slot — no other task mutates it across our yields *)
  check_quiet "DLS pool access across a yield" "yield-race"
    [
      input "lib/xdr/x.ml"
        "let with_enc e f =\n\
        \  let p = Domain.DLS.get pool in\n\
        \  Sim.Engine.sleep e 1.0;\n\
        \  f p\n";
    ]

let cross_library_race =
  (* a blocking wrapper in one library, the stale read in another: only
     the call-graph judgement can see that [Wrap.call] reaches
     [Rpc.call] *)
  [
    input "lib/a/wrap.ml" "let call rpc x = Netsim.Rpc.call rpc x\n";
    input "lib/b/user.ml"
      (gnode_type
     ^ "let refresh t g =\n\
        \  let v = g.g_version in\n\
        \  let r = Wrap.call t.rpc g in\n\
        \  apply t r v\n");
  ]

let test_yield_race_cross_library () =
  check_fires "cross-library wrapper race" "yield-race" cross_library_race

let test_yield_race_cross_library_pure_wrapper () =
  (* the flip side: a resolved wrapper that does NOT block is trusted,
     where the old suffix heuristic had nothing to say either way *)
  check_quiet "pure cross-library wrapper" "yield-race"
    [
      input "lib/a/wrap.ml" "let stamp rpc x = (rpc, x)\n";
      input "lib/b/user.ml"
        (gnode_type
       ^ "let refresh t g =\n\
          \  let v = g.g_version in\n\
          \  let r = Wrap.stamp t.rpc g in\n\
          \  apply t r v\n");
    ]

(* ---- yield-iter ---- *)

let test_yield_iter_seeded () =
  check_fires "primitive yield inside Hashtbl.iter" "yield-iter"
    [
      input "lib/snfs/bcast.ml"
        "let recall t e = Hashtbl.iter (fun _ c -> Sim.Engine.sleep e 0.1) \
         t.clients\n";
    ];
  check_fires "blocking fold over the live table" "yield-iter"
    [
      input "lib/snfs/bcast.ml"
        "let sum t rpc = Hashtbl.fold (fun _ c n -> n + Netsim.Rpc.call rpc \
         c) t.clients 0\n";
    ];
  check_fires "blocking Inttbl.fold over the live table" "yield-iter"
    [
      input "lib/snfs/bcast.ml"
        "let sum t rpc =\n\
        \  Sim.Inttbl.fold (fun _ c n -> n + Netsim.Rpc.call rpc c) t.clients 0\n";
    ]

let test_yield_iter_interprocedural () =
  check_fires "cross-library wrapper judged blocking" "yield-iter"
    [
      input "lib/a/wrap.ml" "let call rpc x = Netsim.Rpc.call rpc x\n";
      input "lib/b/user.ml"
        "let recall t rpc = Hashtbl.iter (fun _ c -> Wrap.call rpc c) \
         t.clients\n";
    ];
  (* a partially applied element function is judged by its head *)
  check_fires "partially applied element function" "yield-iter"
    [
      input "lib/snfs/bcast.ml"
        "let ping rpc _k c = Netsim.Rpc.call rpc c\n\
         let recall t rpc = Hashtbl.iter (ping rpc) t.clients\n";
    ]

let test_yield_iter_clean () =
  check_quiet "pure element function" "yield-iter"
    [
      input "lib/a/x.ml"
        "let size t = Hashtbl.fold (fun _ _ n -> n + 1) t.tbl 0\n";
    ];
  check_quiet "pure Inttbl.fold" "yield-iter"
    [
      input "lib/a/x.ml"
        "let size t = Sim.Inttbl.fold (fun _ _ n -> n + 1) t.tbl 0\n";
    ];
  check_quiet "resolved pure wrapper is trusted" "yield-iter"
    [
      input "lib/a/wrap.ml" "let send _rpc x = x\n";
      input "lib/a/x.ml"
        "let walk t rpc = Hashtbl.iter (fun _ c -> Wrap.send rpc c) t.tbl\n";
    ];
  check_quiet "snapshot-then-iterate idiom" "yield-iter"
    [
      input "lib/a/x.ml"
        "let recall t rpc =\n\
        \  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.clients [] in\n\
        \  List.iter (fun c -> Netsim.Rpc.call rpc c) cs\n";
    ];
  check_quiet "test/ is out of scope" "yield-iter"
    [
      input "test/t.ml"
        "let recall t e = Hashtbl.iter (fun _ c -> Sim.Engine.sleep e c) t.x\n";
    ]

(* ---- domain-safety ---- *)

let test_domain_safety_sweep_leak () =
  (* the PR 6 global-slot-leak bug class, across modules: a sweep job
     thunk calls Registry.install, which writes a toplevel ref *)
  match
    rule_findings "domain-safety"
      [
        input "lib/x/registry.ml"
          "let slot = ref None\nlet install v = slot := Some v\n";
        input "lib/x/runner.ml"
          "let go ~jobs cs =\n\
          \  Experiments.Sweep.map ~jobs ~f:(fun c -> Registry.install c; c) \
           cs\n";
      ]
  with
  | [ f ] ->
      Alcotest.(check string) "flagged at the global's definition"
        "lib/x/registry.ml" f.F.path
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly the leaked slot, got %d findings"
           (List.length fs))

let test_domain_safety_transitive () =
  (* reachability is inter-module and transitive: fan-out -> Mid.note
     -> Registry.install -> slot *)
  check_fires "two-hop reachability" "domain-safety"
    [
      input "lib/x/registry.ml"
        "let slot = ref None\nlet install v = slot := Some v\n";
      input "lib/x/mid.ml" "let note c = Registry.install c\n";
      input "lib/x/runner.ml"
        "let go ~jobs cs = Experiments.Sweep.map ~jobs ~f:(fun c -> \
         Mid.note c) cs\n";
    ]

let test_domain_safety_domain_spawn () =
  check_fires "toplevel Hashtbl touched from Domain.spawn" "domain-safety"
    [
      input "lib/x/stats.ml"
        "let hits = Hashtbl.create 16\n\
         let go () = Domain.spawn (fun () -> Hashtbl.add hits 1 1)\n";
    ]

let test_domain_safety_dls_ownership () =
  check_fires "qualified DLS slot access from another module"
    "domain-safety"
    [
      input "lib/x/a.ml" "let key = Domain.DLS.new_key (fun () -> 0)\n";
      input "lib/x/b.ml" "let peek () = Domain.DLS.get A.key\n";
    ];
  check_quiet "DLS access inside the owning module" "domain-safety"
    [
      input "lib/x/a.ml"
        "let key = Domain.DLS.new_key (fun () -> 0)\n\
         let get () = Domain.DLS.get key\n";
    ]

let test_domain_safety_clean_variants () =
  check_quiet "Atomic global from fanned code" "domain-safety"
    [
      input "lib/x/stats.ml"
        "let counter = Atomic.make 0\n\
         let go () = Domain.spawn (fun () -> Atomic.incr counter)\n";
    ];
  check_quiet "mutable global never reached by fan-out" "domain-safety"
    [
      input "lib/x/stats.ml"
        "let cache = Hashtbl.create 16\n\
         let note k v = Hashtbl.replace cache k v\n";
    ];
  check_quiet "function-local mutable state in a sweep job"
    "domain-safety"
    [
      input "lib/x/runner.ml"
        "let go ~jobs cs =\n\
        \  Experiments.Sweep.map ~jobs\n\
        \    ~f:(fun c ->\n\
        \      let acc = ref 0 in\n\
        \      acc := c + !acc;\n\
        \      !acc)\n\
        \    cs\n";
    ]

(* A literal is judged by the record type it builds, not by whether
   one of its labels is mutable in some other record: [Msg.reply]
   shares [data] with [Ts.t], whose [data] is mutable. *)
let shared_label_types =
  [
    input "lib/x/ts.ml" "type t = { mutable data : int array; name : string }\n";
    input "lib/x/msg.ml" "type reply = { data : bytes; bulk : int }\n";
  ]

let swept body =
  input "lib/x/runner.ml"
    ("let go ~jobs cs = Experiments.Sweep.map ~jobs ~f:(fun c -> " ^ body
   ^ "; c) cs\n")

let test_domain_safety_record_literals () =
  check_quiet "immutable record sharing a label with a mutable one"
    "domain-safety"
    (shared_label_types
    @ [
        input "lib/x/empty.ml"
          "let bare = { data = Bytes.empty; bulk = 0 }\n\
           let qualified = { Msg.data = Bytes.empty; bulk = 0 }\n\
           let widened = { qualified with Msg.bulk = 1 }\n";
        swept "ignore (Empty.bare, Empty.qualified, Empty.widened)";
      ]);
  check_fires "the mutable record sharing that label" "domain-safety"
    (shared_label_types
    @ [
        input "lib/x/cell.ml" "let cell = { Ts.data = [||]; name = \"x\" }\n";
        swept "Cell.cell.Ts.data.(0) <- c";
      ]);
  check_fires "the same literal by its label set" "domain-safety"
    (shared_label_types
    @ [
        input "lib/x/cell.ml" "let cell = { data = [||]; name = \"x\" }\n";
        swept "ignore Cell.cell";
      ])

(* ---- fanout ---- *)

let test_fanout_table_iter () =
  check_fires "Hashtbl.iter on the dispatch path" "fanout"
    [
      input "lib/srv/server.ml"
        "let handle t q = Hashtbl.iter (fun _ c -> touch c q) t.clients\n\
         let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle \
         t q)\n";
    ]

let test_fanout_blocking_per_element () =
  match
    rule_findings "fanout"
      [
        input "lib/srv/server.ml"
          "let notify rpc c = Netsim.Rpc.call rpc c\n\
           let recall t rpc = Hashtbl.iter (fun _ c -> notify rpc c) \
           t.opens\n\
           let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> \
           recall t rpc)\n";
      ]
  with
  | [ f ] ->
      Alcotest.(check bool) "costed as a blocking fan-out" true
        (contains_sub f.F.message "blocking call per element");
      Alcotest.(check int) "at the broadcast line" 2 f.F.line
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly the broadcast, got %d findings"
           (List.length fs))

let test_fanout_projection () =
  let fs =
    rule_findings "fanout"
      [
        input "lib/srv/table.ml"
          "let files t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl []\n";
        input "lib/srv/server.ml"
          "let sweep t = List.iter (fun f -> note f) (Table.files t)\n\
           let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> sweep \
           t)\n";
      ]
  in
  Alcotest.(check int) "List.iter over the projection is flagged" 1
    (List.length
       (List.filter
          (fun f ->
            f.F.path = "lib/srv/server.ml"
            && contains_sub f.F.message "table projection 'Table.files'")
          fs));
  (* the projection itself folds the live table and is server-reachable
     through [sweep], so its own site is flagged too *)
  Alcotest.(check bool) "the fold inside the projection is also flagged" true
    (List.exists (fun f -> f.F.path = "lib/srv/table.ml") fs)

let test_fanout_cross_file_handler () =
  match
    rule_findings "fanout"
      [
        input "lib/srv/dispatch.ml"
          "let handle t q = Hashtbl.iter (fun _ c -> touch c q) t.clients\n";
        input "lib/srv/boot.ml"
          "let start rpc host t = Netsim.Rpc.serve rpc host (Dispatch.handle \
           t)\n";
      ]
  with
  | [ f ] ->
      Alcotest.(check string) "flagged in the handler's own file"
        "lib/srv/dispatch.ml" f.F.path;
      Alcotest.(check bool) "message names the serving root" true
        (contains_sub f.F.message "Boot.start")
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly the handler iteration, got %d"
           (List.length fs))

let test_fanout_forwarding_wrapper () =
  (* the handler reaches [Rpc.serve] through a shared serve function:
     the wrapper forwards its own parameter, so it is a serve head and
     the file that hands it a handler is server code *)
  match
    rule_findings "fanout"
      [
        input "lib/wire/wire.ml"
          "let serve rpc host dispatch =\n\
          \  let handler q = match dispatch q with Some r -> r | None -> \
           stale in\n\
          \  Netsim.Rpc.serve rpc host handler\n";
        input "lib/srv/server.ml"
          "let handle t q = Hashtbl.iter (fun _ c -> touch c q) t.clients\n\
           let start rpc host t = Wire.serve rpc host (fun q -> handle t q)\n";
      ]
  with
  | [ f ] ->
      Alcotest.(check string) "flagged in the protocol's file"
        "lib/srv/server.ml" f.F.path;
      Alcotest.(check bool) "message names the protocol's serving root" true
        (contains_sub f.F.message "reachable from 'Server.start'")
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly the handler iteration, got %d"
           (List.length fs))

let test_fanout_forwarded_procedure_list () =
  (* the handlers reach [Rpc.serve] inside a procedure list that the
     wrapper extends with entries of its own: its parameter is handed
     on as a value, not applied, and the wrapper is still a serve head *)
  match
    rule_findings "fanout"
      [
        input "lib/wire/wire.ml"
          "let basic core = [ (\"null\", fun q -> reply core q) ]\n\
           let serve rpc host core procs =\n\
          \  Netsim.Rpc.serve rpc host ~unknown:stale (procs @ basic core)\n";
        input "lib/srv/server.ml"
          "let handle t q = Hashtbl.iter (fun _ c -> touch c q) t.clients\n\
           let start rpc host t core =\n\
          \  Wire.serve rpc host core [ (\"op\", fun q -> handle t q) ]\n";
      ]
  with
  | [ f ] ->
      Alcotest.(check string) "flagged in the protocol's file"
        "lib/srv/server.ml" f.F.path;
      Alcotest.(check bool) "message names the protocol's serving root" true
        (contains_sub f.F.message "reachable from 'Server.start'")
  | fs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly the handler iteration, got %d"
           (List.length fs))

let test_fanout_wrapper_without_forwarding () =
  (* a wrapper that serves a handler of its own making is no serve
     head: what its callers pass it is not a handler *)
  check_quiet "non-forwarding wrapper" "fanout"
    [
      input "lib/wire/wire.ml"
        "let serve rpc host log =\n\
        \  log \"serving\";\n\
        \  Netsim.Rpc.serve rpc host (fun q -> reply q)\n";
      input "lib/srv/server.ml"
        "let handle t q = Hashtbl.iter (fun _ c -> touch c q) t.clients\n\
         let start rpc host t = Wire.serve rpc host (fun q -> handle t q)\n";
    ]

let test_fanout_bounded_waiver () =
  let waived =
    "let handle t q =\n\
    \  (* snfs-fanout: bounded — at most the three wired replicas *)\n\
    \  Hashtbl.iter (fun _ c -> touch c q) t.clients\n\
     let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle t q)\n"
  in
  Alcotest.(check int) "bounded reason suppresses in place" 0
    (count "fanout" [ input "lib/srv/server.ml" waived ]);
  let wrong =
    "let handle t q =\n\
    \  (* bounded, promise *)\n\
    \  Hashtbl.iter (fun _ c -> touch c q) t.clients\n\
     let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle t q)\n"
  in
  Alcotest.(check int) "a comment without the token does not waive" 1
    (count "fanout" [ input "lib/srv/server.ml" wrong ])

let test_fanout_bounded_waiver_judged () =
  let live =
    "let handle t q =\n\
    \  (* snfs-fanout: bounded — at most the three wired replicas *)\n\
    \  Hashtbl.iter (fun _ c -> touch c q) t.clients\n\
     let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle t q)\n"
  in
  check_quiet "a live comment" "stale-waiver"
    [ input "lib/srv/server.ml" live ];
  Alcotest.(check (list (pair string int))) "counted live"
    [ ("fanout", 1) ]
    (D.analyze [ input "lib/srv/server.ml" live ]).D.live_waivers;
  let idle =
    "let handle t q =\n\
    \  (* snfs-fanout: bounded — nothing here walks a table *)\n\
    \  touch t q\n\
     let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle t q)\n"
  in
  (match rule_findings "stale-waiver" [ input "lib/srv/server.ml" idle ] with
  | [ f ] ->
      Alcotest.(check int) "an idle comment is stale on its line" 2 f.F.line;
      Alcotest.(check bool) "the message quotes it" true
        (contains_sub f.F.message "'snfs-fanout: bounded'")
  | fs -> Alcotest.failf "expected one stale waiver, got %d" (List.length fs));
  let quoted =
    "let handle t q =\n\
    \  let why = \"snfs-fanout: bounded\" in\n\
    \  Hashtbl.iter (fun _ c -> touch c why q) t.clients\n\
     let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle t q)\n"
  in
  Alcotest.(check int) "the phrase in a string literal does not waive" 1
    (count "fanout" [ input "lib/srv/server.ml" quoted ]);
  check_quiet "nor goes stale" "stale-waiver"
    [ input "lib/srv/server.ml" quoted ]

let test_fanout_inttbl_fold () =
  check_fires "Sim.Inttbl.fold on the dispatch path" "fanout"
    [
      input "lib/srv/server.ml"
        "let handle t q = Sim.Inttbl.fold (fun _ c n -> n + c) t.clients 0\n\
         let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle \
         t q)\n";
    ];
  (* a wrapper over the fold is a table projection, as [Client_core.fold]
     is: iterating what it builds is flagged at the caller *)
  let fs =
    rule_findings "fanout"
      [
        input "lib/srv/table.ml"
          "let fold f t acc = Sim.Inttbl.fold (fun _ g acc -> f g acc) t.tbl \
           acc\n";
        input "lib/srv/server.ml"
          "let sweep t = List.iter note (Table.fold (fun g acc -> g :: acc) \
           t [])\n\
           let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> sweep \
           t)\n";
      ]
  in
  Alcotest.(check bool) "iterating the wrapper's projection is flagged" true
    (List.exists
       (fun f ->
         f.F.path = "lib/srv/server.ml"
         && contains_sub f.F.message "table projection 'Table.fold'")
       fs)

let test_fanout_inttbl_quiet () =
  check_quiet "Sim.Inttbl.find is a lookup, not a walk" "fanout"
    [
      input "lib/srv/server.ml"
        "let handle t q = Sim.Inttbl.find t.clients q\n\
         let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle \
         t q)\n";
    ];
  check_quiet "Sim.Inttbl.fold off any server path" "fanout"
    [
      input "lib/cache/sweep.ml"
        "let total t = Sim.Inttbl.fold (fun _ c n -> n + c) t.clients 0\n";
    ]

(* A [Hashtbl.Make] instance's table is as live as a [Hashtbl.t]: its
   fold on a server path is flagged, from its own file or another, a
   bounded waiver on it is live, not stale, and a lookup in it is
   quiet. Localfs's directory entries are such a table, and readdir's
   waiver rests on this. *)
let names_table =
  "module Names = Hashtbl.Make (struct\n\
  \  type t = string\n\
  \  let equal = String.equal\n\
  \  let hash = Hashtbl.hash\n\
   end)\n"

let test_fanout_functor_table () =
  let serve =
    "let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle t q)\n"
  in
  check_fires "a Hashtbl.Make instance's fold on the dispatch path" "fanout"
    [
      input "lib/srv/server.ml"
        (names_table
        ^ "let handle t q = Names.fold (fun k _ acc -> k :: acc) t.dir [q]\n"
        ^ serve);
    ];
  check_fires "its iter, named through another file" "fanout"
    [
      input "lib/srv/dir.ml" names_table;
      input "lib/srv/server.ml"
        ("let handle t q = Dir.Names.iter (fun _ c -> touch c q) t.dir\n"
        ^ serve);
    ];
  let waived =
    names_table
    ^ "let handle t q =\n\
      \  (* snfs-fanout: bounded — one directory's entries *)\n\
      \  Names.fold (fun k _ acc -> k :: acc) t.dir [q]\n"
    ^ serve
  in
  check_quiet "a waiver on it is live" "stale-waiver"
    [ input "lib/srv/server.ml" waived ];
  Alcotest.(check (list (pair string int))) "counted live"
    [ ("fanout", 1) ]
    (D.analyze [ input "lib/srv/server.ml" waived ]).D.live_waivers;
  check_quiet "a lookup is not a walk" "fanout"
    [
      input "lib/srv/server.ml"
        (names_table ^ "let handle t q = Names.find_opt t.dir q\n" ^ serve);
    ];
  check_fires "a blocking element function in its iter" "yield-iter"
    [
      input "lib/snfs/bcast.ml"
        (names_table
        ^ "let recall t e = Names.iter (fun _ c -> Sim.Engine.sleep e c) \
           t.clients\n");
    ]

let test_fanout_clean_variants () =
  check_quiet "no serve application: not a server path" "fanout"
    [
      input "lib/cache/sweep.ml"
        "let handle t q = Hashtbl.iter (fun _ c -> touch c q) t.clients\n";
    ];
  check_quiet "plain list iteration is not a projection" "fanout"
    [
      input "lib/srv/server.ml"
        "let sweep names = List.iter (fun f -> note f) names\n\
         let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> sweep \
         t)\n";
    ];
  check_quiet "test/ is out of scope" "fanout"
    [
      input "test/t.ml"
        "let handle t q = Hashtbl.iter (fun _ c -> touch c q) t.clients\n\
         let serve rpc host t = Netsim.Rpc.serve rpc host (fun q -> handle \
         t q)\n";
    ]

(* ---- hot-alloc ---- *)

(* assembled at runtime so this test file's own source (scanned by the
   tree-is-clean test) never contains the hot marker *)
let hot = "(* snfs-" ^ "hot *)"

let test_hot_alloc_seeded () =
  (* the ISSUE's canonical true positive: a boxed option on a declared
     hot path *)
  check_fires "boxed Some in a marked hot function" "hot-alloc"
    [
      input "lib/z/m.ml"
        (hot ^ "\nlet find t k = if k = 0 then None else Some t\n");
    ];
  (* the marker is the only declaration of the hot set: no binding is
     hot by its name *)
  check_quiet "an unmarked Eventq.push is not hot" "hot-alloc"
    [ input "lib/sim/eventq.ml" "let push t x = (t, x)\n" ];
  (* whole-file header marker *)
  check_fires "file-header marker covers the whole file" "hot-alloc"
    [
      input "lib/z/m.ml"
        ("(* perf-critical path: " ^ hot ^ " everything below *)\n"
       ^ "let wrap x = Some x\n");
    ];
  (* below the first item, a marker makes only the binding under it
     hot *)
  check_fires "a marker above a later binding" "hot-alloc"
    [
      input "lib/obs/causal.ml"
        ("let none = 0\n\n" ^ hot ^ "\nlet live c = Some c <> None\n");
    ];
  check_quiet "the bindings around a marked one are not hot" "hot-alloc"
    [
      input "lib/obs/causal.ml"
        ("let arg c args = (\"op\", c) :: args\n\n" ^ hot
       ^ "\nlet live c = c > 0\n\nlet wrap c = Some c\n");
    ]

let test_hot_alloc_constructs () =
  let fires what src =
    check_fires what "hot-alloc" [ input "lib/z/m.ml" (hot ^ "\n" ^ src) ]
  in
  fires "anonymous closure" "let go t = iter (fun x -> x + t)\n";
  fires "Printf" "let dbg t = Printf.printf \"%d\" t\n";
  fires "List.map" "let go xs = List.map succ xs\n";
  fires "list append" "let go xs ys = xs @ ys\n";
  fires "Hashtbl use" "let go t k = Hashtbl.find t k\n";
  fires "polymorphic compare ref" "let c a b = compare a b\n";
  fires "structured polymorphic =" "let eq a b = (a, 1) = (b, 2)\n";
  fires "= None" "let vacant b = b.fetching = None\n";
  fires "<> []" "let busy t = t.waiters <> []\n";
  fires "mutable float in mixed record"
    "let tick t = t\ntype cell = { mutable last : float; name : int }\n"

let test_hot_alloc_partial_application () =
  check_fires "partial application of a known function" "hot-alloc"
    [
      input "lib/z/m.ml"
        ("let add a b = a + b\n" ^ hot ^ "\nlet mk t = add t\n");
    ];
  check_quiet "full application is free" "hot-alloc"
    [
      input "lib/z/m.ml"
        ("let add a b = a + b\n" ^ hot ^ "\nlet mk t = add t 1\n");
    ]

let test_hot_alloc_exemptions () =
  let quiet what src =
    check_quiet what "hot-alloc" [ input "lib/z/m.ml" (hot ^ "\n" ^ src) ]
  in
  quiet "local refs are unboxed by ocamlopt"
    "let sum2 a b =\n  let acc = ref a in\n  acc := !acc + b;\n  !acc\n";
  quiet "named local functions compile to jumps"
    "let find t k =\n\
    \  let rec probe i = if i = k then i else probe (i + 1) in\n\
    \  probe t\n";
  quiet "raise paths are cold"
    "let get t =\n\
    \  if t < 0 then invalid_arg (Printf.sprintf \"neg %d\" t);\n\
    \  t\n";
  quiet "observability-on branch may allocate"
    "let note t =\n  if Obs.Trace.on () then emit (t, t)\n";
  check_quiet "unmarked, unlisted code is not hot" "hot-alloc"
    [ input "lib/z/m.ml" "let go xs = List.map succ xs\n" ];
  check_quiet "test/ sources are never hot" "hot-alloc"
    [ input "test/t.ml" (hot ^ "\nlet wrap x = Some x\n") ]

let test_purity_seeded () =
  check_fires "printing from the core model" "purity"
    [ input "lib/core/state_table.ml" "let d () = print_endline \"x\"\n" ];
  check_fires "simulator reference in the core model" "purity"
    [ input "lib/core/state_table.ml" "let n e = Sim.Engine.now e\n" ];
  check_fires "I/O module reference in model.ml" "purity"
    [ input "lib/check/model.ml" "let r f = In_channel.input_all f\n" ];
  check_fires "simulator reference anywhere in lib/check" "purity"
    [ input "lib/check/explore.ml" "let n e = Sim.Engine.now e\n" ];
  check_fires "toplevel mutable state" "purity"
    [ input "lib/core/state_table.ml" "let table = Hashtbl.create 16\n" ];
  (* the containers domain-safety classifies as mutable, one finding
     each *)
  Alcotest.(check (list int))
    "every toplevel mutable container, each once" [ 1; 2; 3; 4; 5; 6 ]
    (List.sort compare
       (List.map
          (fun f -> f.F.line)
          (rule_findings "purity"
             [
               input "lib/core/state_table.ml"
                 "let table = Hashtbl.create 16\n\
                  let slots = [| 0; 1 |]\n\
                  let buf = Bytes.make 8 ' '\n\
                  let times : float array = Array.create_float 4\n\
                  let cell = ref 0\n\
                  let q = Queue.create () |> Fun.id\n";
             ])));
  check_fires "a mutable record literal" "purity"
    [
      input "lib/core/state_table.ml"
        "type c = { mutable n : int }\nlet counter = { n = 0 }\n";
    ]

let test_purity_clean_variants () =
  check_quiet "sprintf is pure" "purity"
    [ input "lib/core/state_table.ml" "let s x = Printf.sprintf \"%d\" x\n" ];
  check_quiet "mutable state inside a function" "purity"
    [ input "lib/core/state_table.ml" "let f () = Hashtbl.create 16\n" ];
  check_quiet "an immutable record literal" "purity"
    [
      input "lib/core/state_table.ml"
        "type p = { x : int }\nlet origin = { x = 0 }\n";
    ];
  check_quiet "other lib/ modules are out of scope" "purity"
    [ input "lib/obs/x.ml" "let n e = Sim.Engine.now e\n" ]

(* ---- interface-drift ---- *)

let drift_fixture b_src =
  [
    input "lib/m/a.mli" "val used : int -> int\nval dead : int -> int\n";
    input "lib/m/a.ml" "let used x = B.g x\nlet dead x = used x\n";
    input "lib/m/b.ml" b_src;
    input "lib/m/b.mli" "val g : int -> int\n";
  ]

(* exactly [A.dead] fires: [B]'s reference reached [A.used] *)
let check_only_dead msg inputs =
  match rule_findings "interface-drift" inputs with
  | [ f ] ->
      Alcotest.(check string) (msg ^ ": path") "lib/m/a.mli" f.F.path;
      Alcotest.(check bool) (msg ^ ": names the dead val") true
        (String.length f.F.message >= 8 && String.sub f.F.message 0 8 = "val dead")
  | fs ->
      Alcotest.fail
        (Printf.sprintf "%s: expected exactly the dead val, got %d findings"
           msg (List.length fs))

let test_interface_drift_seeded () =
  check_only_dead "qualified use" (drift_fixture "let g x = A.used x\n")

let test_interface_drift_alias_resolved () =
  (* module X = A ... X.dead counts as a use of A.dead *)
  check_quiet "alias use" "interface-drift"
    (drift_fixture "module X = A\nlet g x = X.used (X.dead x)\n")

let test_interface_drift_program_callers () =
  let lib =
    [
      input "lib/m/a.mli" "val used : int -> int\n";
      input "lib/m/a.ml" "let used x = x\n";
    ]
  in
  check_fires "a test caller is no use" "interface-drift"
    (lib @ [ input "test/test_a.ml" "let () = ignore (A.used 1)\n" ]);
  check_fires "a test's open is no use either" "interface-drift"
    (lib @ [ input "test/test_a.ml" "open A\nlet () = ignore (used 1)\n" ]);
  check_quiet "a perfbench caller is a use" "interface-drift"
    (lib @ [ input "perfbench/bench.ml" "let () = ignore (A.used 1)\n" ]);
  check_quiet "a let () caller in bin/ is a use" "interface-drift"
    (lib @ [ input "bin/main.ml" "let () = ignore (A.used 1)\n" ]);
  check_quiet "a tuple binding in perfbench/ is a use" "interface-drift"
    (lib @ [ input "perfbench/bench.ml" "let a, b = (A.used 1, 2)\n" ]);
  (* a functor argument is used through the parameter's signature,
     when program code applies the functor to it *)
  let functor_user application =
    [
      input "lib/m/f.ml"
        ("module Make (S : sig val used : int -> int end) = struct\n\
         \  let go () = S.used 1\n\
          end\n" ^ application);
      input "lib/m/f.mli" "";
    ]
  in
  check_quiet "a functor argument is a use" "interface-drift"
    (lib @ functor_user "module M = Make (A)\n");
  check_fires "a test's functor application is no use" "interface-drift"
    (lib @ functor_user ""
    @ [ input "test/test_a.ml" "module M = F.Make (A)\nlet () = M.go ()\n" ])

(* vals inside [module X : sig ... end] and inside a functor's result
   signature are judged like toplevel ones, reached through the module
   path or through an alias of a functor application *)
let test_interface_drift_nested () =
  let lib =
    [
      input "lib/m/a.mli"
        "module Inner : sig\n\
        \  val used : int -> int\n\
         end\n\
         module Make (S : sig end) : sig\n\
        \  val run : int -> int\n\
         end\n";
      input "lib/m/a.ml"
        "module Inner = struct let used x = x end\n\
         module Make (S : sig end) = struct let run x = x end\n";
    ]
  in
  let caller path =
    input path
      "module M = A.Make (struct end)\n\
       let () = ignore (A.Inner.used (M.run 1))\n"
  in
  Alcotest.(check int) "only tests call either: both flagged" 2
    (count "interface-drift" (lib @ [ caller "test/test_a.ml" ]));
  check_quiet "a bin/ caller is a use of both" "interface-drift"
    (lib @ [ caller "bin/main.ml" ])

let test_interface_drift_test_seam () =
  let seam =
    [
      input "lib/m/a.mli"
        "(* snfs-lint: allow interface-drift — test seam: injects a fault *)\n\
         val inject : int -> int\n";
      input "lib/m/a.ml" "let inject x = x\n";
      input "test/test_a.ml" "let () = ignore (A.inject 1)\n";
    ]
  in
  check_quiet "a test seam waiver" "interface-drift" seam;
  check_quiet "and it is live" "stale-waiver" seam

let test_interface_drift_open_attributes () =
  (* open A: the bare [used] is A's, and A is still judged *)
  check_only_dead "open" (drift_fixture "open A\nlet g x = used x\n")

(* the expression-level scopes resolve like their structure-level
   forms *)
let test_interface_drift_local_scopes () =
  List.iter
    (fun (what, b_src) -> check_only_dead what (drift_fixture b_src))
    [
      ("local open", "let g x = A.(used x)\n");
      ("let open", "let g x = let open A in used x\n");
      ("let module alias", "let g x = let module X = A in X.used x\n");
    ];
  check_only_dead "let module functor argument"
    (drift_fixture "let g x = let module M = F.Make (A) in M.go x\n"
    @ [
        input "lib/m/f.mli"
          "module Make (S : sig val used : int -> int end) : sig\n\
          \  val go : int -> int\n\
           end\n";
        input "lib/m/f.ml"
          "module Make (S : sig val used : int -> int end) = struct\n\
          \  let go x = S.used x\n\
           end\n";
      ])

(* ---- missing-mli ---- *)

let test_missing_mli () =
  check_fires "lib/ module without interface" "missing-mli"
    [ input "lib/core/lone.ml" "let x = 1\n" ];
  check_quiet "paired module" "missing-mli"
    [ input "lib/core/a.ml" "let x = 1\n"; input "lib/core/a.mli" "val x : int\n" ];
  check_quiet "tests need no interfaces" "missing-mli"
    [ input "test/t.ml" "let x = 1\n" ]

(* ---- waivers ---- *)

let test_waiver () =
  let waived =
    "let flush t =\n\
    \  (* snfs-lint: allow hashtbl-order — replay order is pinned upstream *)\n\
    \  Hashtbl.iter (fun target cb -> deliver_callback target cb) t.pending\n"
  in
  Alcotest.(check int) "justified waiver on the line above" 0
    (count "hashtbl-order" [ input "lib/srv/cb.ml" waived ]);
  let wrong_rule =
    "let flush t =\n\
    \  (* snfs-lint: allow determinism *)\n\
    \  Hashtbl.iter (fun target cb -> deliver_callback target cb) t.pending\n"
  in
  Alcotest.(check int) "waiver is per-rule" 1
    (count "hashtbl-order" [ input "lib/srv/cb.ml" wrong_rule ]);
  let prefix =
    "let now () =\n\
    \  (* snfs-lint: allow determinism *)\n\
    \  Unix.gettimeofday ()\n"
  in
  Alcotest.(check int) "waived determinism" 0
    (count "determinism" [ input "lib/a.ml" prefix ])

let test_waiver_name_boundary () =
  (* "allow yield" must not waive "yield-race" *)
  let src =
    "type g = { mutable g_version : int }\n\
     let f g e =\n\
    \  let v = g.g_version in\n\
    \  (* snfs-lint: allow yield *)\n\
    \  Sim.Engine.sleep e 1.0;\n\
    \  use v\n"
  in
  Alcotest.(check int) "prefix of a rule name is not a waiver" 1
    (count "yield-race" [ input "lib/a.ml" src ])

let test_stale_waiver () =
  let stale =
    "let now () =\n\
    \  (* snfs-lint: allow determinism — nothing here reads a clock *)\n\
    \  0.0\n"
  in
  check_fires "a waiver with nothing to waive" "stale-waiver"
    [ input "lib/a.ml" stale ];
  (match rule_findings "stale-waiver" [ input "lib/a.ml" stale ] with
  | [ f ] -> Alcotest.(check int) "reported on the waiver's line" 2 f.F.line
  | fs -> Alcotest.failf "expected one stale waiver, got %d" (List.length fs));
  (* a waiver is a comment: the same text in a string literal or a doc
     comment neither waives nor goes stale *)
  check_quiet "string literals and doc comments are inert" "stale-waiver"
    [
      input "lib/a.ml"
        "let s = \"(* snfs-lint: allow determinism *)\"\n\
         (** {v (* snfs-lint: allow determinism *) v} *)\n\
         let t = 0\n";
    ];
  check_fires "a doc-comment waiver does not waive" "determinism"
    [ input "lib/a.ml" "(** snfs-lint: allow determinism *)\nlet n = Sys.time ()\n" ]

let test_used_waiver_quiet () =
  let used =
    "let now () =\n\
    \  (* snfs-lint: allow determinism *)\n\
    \  Unix.gettimeofday ()\n"
  in
  check_quiet "a waiver that suppresses a finding" "stale-waiver"
    [ input "lib/a.ml" used ];
  let r = D.analyze [ input "lib/a.ml" used ] in
  Alcotest.(check (list (pair string int))) "counted live"
    [ ("determinism", 1) ] r.D.live_waivers;
  Alcotest.(check bool) "--stats prints the live count" true
    (contains_sub (D.stats_to_string r) "live waivers: 1")

let test_stale_waiver_rules () =
  (* only rules that ran can judge their waivers: with determinism
     skipped, its waiver is neither used nor stale *)
  let src =
    "let now () =\n\
    \  (* snfs-lint: allow determinism *)\n\
    \  0.0\n"
  in
  let stale r =
    List.filter (fun f -> f.F.rule = "stale-waiver") r.D.findings
    |> List.length
  in
  let inputs = [ input "lib/a.ml" src ] in
  Alcotest.(check int) "all rules: stale" 1 (stale (D.analyze inputs));
  Alcotest.(check int) "--rules without determinism: not judged" 0
    (stale (D.analyze ~only:[ "hot-alloc" ] inputs));
  Alcotest.(check int) "--rules with determinism: stale" 1
    (stale (D.analyze ~only:[ "determinism" ] inputs));
  Alcotest.(check int) "--skip-rules determinism: not judged" 0
    (stale (D.analyze ~skip:[ "determinism" ] inputs))

(* ---- parse errors ---- *)

let test_parse_error () =
  check_fires "unparseable file is itself a finding" "parse-error"
    [ input "lib/a.ml" "let = in in\n" ]

(* ---- baseline ---- *)

let test_baseline () =
  let f1 = F.v ~path:"lib/a.ml" ~line:3 ~rule:"determinism" "m1"
  and f2 = F.v ~path:"lib/b.ml" ~line:9 ~rule:"yield-race" "m2" in
  let b = B.of_string (B.to_string [ f1 ]) in
  let fresh, baselined = B.apply b [ f1; f2 ] in
  Alcotest.(check int) "f1 absorbed" 1 (List.length baselined);
  Alcotest.(check int) "f2 fresh" 1 (List.length fresh);
  (* match is by rule/path/message, not line: edits above must not
     resurrect a baselined finding *)
  let moved = { f1 with F.line = 42 } in
  let fresh, baselined = B.apply b [ moved ] in
  Alcotest.(check int) "line-independent match" 1 (List.length baselined);
  Alcotest.(check int) "nothing fresh" 0 (List.length fresh);
  let junk = B.of_string "# comment\n\nnot a baseline line\n" in
  let fresh, _ = B.apply junk [ f2 ] in
  Alcotest.(check int) "malformed lines are ignored" 1 (List.length fresh)

let test_driver_end_to_end () =
  let inputs =
    [ input "lib/a.ml" "let now = Unix.gettimeofday\n"; input "lib/a.mli" "" ]
  in
  let r = D.analyze inputs in
  let det = List.filter (fun f -> f.F.rule = "determinism") r.D.findings in
  let baseline =
    B.of_string (B.to_string det)
  in
  let r2 = D.analyze ~baseline inputs in
  Alcotest.(check int) "baselined run has no fresh determinism findings" 0
    (List.length
       (List.filter (fun f -> f.F.rule = "determinism") r2.D.fresh));
  Alcotest.(check int) "baselined findings are reported as such"
    (List.length det) (List.length r2.D.baselined)

(* ---- output determinism and format ---- *)

let test_finding_format () =
  let f = F.v ~path:"lib/a.ml" ~line:12 ~col:4 ~rule:"determinism" "m" in
  Alcotest.(check string) "GNU error format"
    "lib/a.ml:12:4: error: [determinism] m" (F.to_string f);
  Alcotest.(check string) "JSON object, fixed field order"
    ("[\n  "
    ^ {|{"path":"lib/a.ml","line":12,"col":4,"rule":"determinism","message":"m"}|}
    ^ "\n]\n")
    (F.report_to_json [ f ])

let test_registry () =
  Alcotest.(check (list string)) "pass registry"
    [
      "determinism"; "hashtbl-order"; "yield-race"; "yield-iter";
      "domain-safety"; "fanout"; "hot-alloc"; "purity"; "interface-drift";
      "missing-mli";
    ]
    (List.map (fun p -> p.Analysis.Pass.name) D.passes)

let test_rule_filters () =
  (* one fixture violating two rules: --rules / --skip-rules project
     the finding set, and parse errors always survive the selection *)
  let inputs =
    [
      input "lib/z/m.ml"
        (hot ^ "\nlet go t = Unix.gettimeofday () +. float_of_int (fst (t, 1))\n");
      input "lib/z/m.mli" "";
      input "lib/z/broken.ml" "let = in in\n";
      input "lib/z/broken.mli" "";
    ]
  in
  let rules r =
    List.sort_uniq compare (List.map (fun f -> f.F.rule) r.D.findings)
  in
  let all = D.analyze inputs in
  Alcotest.(check (list string)) "unfiltered sees both rules"
    [ "determinism"; "hot-alloc"; "parse-error" ] (rules all);
  let only = D.analyze ~only:[ "hot-alloc" ] inputs in
  Alcotest.(check (list string)) "--rules keeps the subset"
    [ "hot-alloc"; "parse-error" ] (rules only);
  let skipped = D.analyze ~skip:[ "hot-alloc" ] inputs in
  Alcotest.(check (list string)) "--skip-rules drops the named pass"
    [ "determinism"; "parse-error" ] (rules skipped);
  Alcotest.check_raises "unknown rule is rejected"
    (Analysis.Driver.Unknown_rule "bogus") (fun () ->
      ignore (D.analyze ~only:[ "bogus" ] inputs))

let test_new_rules_baseline_roundtrip () =
  (* baseline round trip for the two new rules: absorbed, line-move
     independent, rule-exact *)
  let ds =
    F.v ~path:"lib/x/registry.ml" ~line:1 ~rule:"domain-safety" "leak"
  and ha = F.v ~path:"lib/z/m.ml" ~line:2 ~rule:"hot-alloc" "Some" in
  let b = B.of_string (B.to_string [ ds; ha ]) in
  let fresh, baselined = B.apply b [ ds; ha ] in
  Alcotest.(check int) "both absorbed" 2 (List.length baselined);
  Alcotest.(check int) "nothing fresh" 0 (List.length fresh);
  let moved = [ { ds with F.line = 7 }; { ha with F.line = 9 } ] in
  let fresh, baselined = B.apply b moved in
  Alcotest.(check int) "line-independent" 2 (List.length baselined);
  Alcotest.(check int) "still nothing fresh" 0 (List.length fresh);
  let other_rule = { ds with F.rule = "hot-alloc" } in
  let fresh, _ = B.apply b [ other_rule ] in
  Alcotest.(check int) "rule is part of the key" 1 (List.length fresh)

let test_stats () =
  let inputs =
    [
      input "lib/a.ml" "let now = Unix.gettimeofday\n";
      input "lib/a.mli" "val now : unit -> float\n";
    ]
  in
  (* the default clock is a constant, so every duration is exactly 0 —
     the library stays free of wall clocks (its own pass bans them) *)
  let r = D.analyze inputs in
  Alcotest.(check int) "files scanned" 2 r.D.files_scanned;
  Alcotest.(check int) "one stat per pass" (List.length D.passes)
    (List.length r.D.stats);
  let names = List.map (fun s -> s.D.s_pass) r.D.stats in
  Alcotest.(check (list string)) "stats sorted by pass name"
    (List.sort compare names) names;
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9))
        ("constant clock: " ^ s.D.s_pass)
        0.0 s.D.s_time_ms)
    r.D.stats;
  let det = List.find (fun s -> s.D.s_pass = "determinism") r.D.stats in
  Alcotest.(check int) "raw finding count" 1 det.D.s_findings;
  (* a fake clock ticking 0.5 ms per reading: each pass reads it twice,
     so every pass is charged exactly 0.5 ms — deterministic stats *)
  let t = ref 0.0 in
  let clock () =
    t := !t +. 0.0005;
    !t
  in
  let r2 = D.analyze ~clock inputs in
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9)) ("ticked: " ^ s.D.s_pass) 0.5 s.D.s_time_ms)
    r2.D.stats;
  let rendered = D.stats_to_string r2 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("stats text has " ^ needle) true
        (contains_sub rendered needle))
    [ "files scanned: 2"; "determinism"; "1 finding(s)"; "0.5 ms" ]

let test_sarif_format () =
  let f =
    F.v ~path:"lib/a.ml" ~line:3 ~col:4 ~rule:"determinism" "wall \"clock\""
  in
  let s = Analysis.Sarif.to_string ~rules:D.rule_docs [ f ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("SARIF has " ^ needle) true (contains_sub s needle))
    [
      "\"version\": \"2.1.0\"";
      "\"name\": \"snfs_lint\"";
      "{\"id\": \"determinism\"";
      "{\"id\": \"fanout\"";
      "{\"id\": \"yield-iter\"";
      "\"ruleId\": \"determinism\"";
      "\"uri\": \"lib/a.ml\"";
      (* SARIF columns are 1-based where the compiler's are 0-based *)
      "\"startLine\": 3, \"startColumn\": 5";
      "wall \\\"clock\\\"";
    ]

let test_sarif_deterministic () =
  (* two full runs over the real tree render byte-identical SARIF *)
  let render () =
    Analysis.Sarif.to_string ~rules:D.rule_docs
      (D.analyze (D.load_tree "..")).D.findings
  in
  Alcotest.(check string) "byte-identical SARIF" (render ()) (render ())

let test_json_deterministic () =
  (* two full analyzer runs over the real tree must emit byte-identical
     JSON *)
  let report () =
    F.report_to_json (D.analyze (D.load_tree "..")).D.findings
  in
  let a = report () and b = report () in
  Alcotest.(check string) "byte-identical reports" a b

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_tree_is_clean () =
  (* the property @lint enforces, from the test suite's angle: the
     built source tree has no findings beyond the committed baseline,
     and the baseline itself is exactly the ROADMAP-item-1 fan-out
     backlog — every entry a [fanout] finding, none of them stale *)
  let baseline = B.of_string (read_file "../lint-baseline") in
  let r = D.analyze ~baseline (D.load_tree "..") in
  List.iter (fun f -> print_endline (F.to_string f)) r.D.fresh;
  Alcotest.(check int) "repository tree is clean" 0 (List.length r.D.fresh);
  Alcotest.(check bool) "the baseline is the fan-out backlog" true
    (r.D.baselined <> []
    && List.for_all (fun f -> f.F.rule = "fanout") r.D.baselined);
  let entries =
    String.split_on_char '\n' (read_file "../lint-baseline")
    |> List.filter (fun l ->
           let l = String.trim l in
           l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "no stale baseline entries" (List.length entries)
    (List.length r.D.baselined)

let () =
  Alcotest.run "analysis"
    [
      ( "determinism",
        [
          Alcotest.test_case "seeded calls fire" `Quick test_determinism_seeded;
          Alcotest.test_case "aliases fire too" `Quick
            test_determinism_alias_flagged;
          Alcotest.test_case "bin//test/ scoping" `Quick
            test_determinism_scoping;
          Alcotest.test_case "strings and comments inert" `Quick
            test_determinism_strings_inert;
        ] );
      ( "hashtbl-order",
        [
          Alcotest.test_case "iter into sink fires" `Quick
            test_hashtbl_order_seeded;
          Alcotest.test_case "fold taint flows through lets" `Quick
            test_hashtbl_order_fold_dataflow;
          Alcotest.test_case "sort cleanses" `Quick
            test_hashtbl_order_sort_cleanses;
          Alcotest.test_case "no sink, no finding" `Quick
            test_hashtbl_order_no_sink;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "nodes, aliases and opens" `Quick
            test_callgraph_nodes_and_edges;
          Alcotest.test_case "wrapper prefixes and deferred thunks" `Quick
            test_callgraph_wrapper_and_defer;
          Alcotest.test_case "functor application" `Quick
            test_callgraph_functor;
          Alcotest.test_case "local scopes and unnamed bindings" `Quick
            test_callgraph_local_scopes;
          Alcotest.test_case "bindings sharing an id merge references" `Quick
            test_callgraph_shared_id;
        ] );
      ( "yield-race",
        [
          Alcotest.test_case "stale read across RPC fires" `Quick
            test_yield_race_seeded;
          Alcotest.test_case "qualified field judged by its type" `Quick
            test_yield_race_qualified_field;
          Alcotest.test_case "re-read is clean" `Quick
            test_yield_race_reread_ok;
          Alcotest.test_case "claim-and-clear is clean" `Quick
            test_yield_race_claim_and_clear_ok;
          Alcotest.test_case "Hashtbl.find and !ref sources" `Quick
            test_yield_race_hashtbl_and_ref;
          Alcotest.test_case "local wrapper fixpoint" `Quick
            test_yield_race_local_wrapper_fixpoint;
          Alcotest.test_case "deferred lambdas don't block" `Quick
            test_yield_race_deferred_lambda_ok;
          Alcotest.test_case "test/ is out of scope" `Quick
            test_yield_race_scope;
          Alcotest.test_case "bump cells update, not read" `Quick
            test_yield_race_bump_cell;
          Alcotest.test_case "clock and DLS wrapper idioms" `Quick
            test_yield_race_wrapper_idioms;
          Alcotest.test_case "cross-library wrapper race" `Quick
            test_yield_race_cross_library;
          Alcotest.test_case "pure cross-library wrapper trusted" `Quick
            test_yield_race_cross_library_pure_wrapper;
        ] );
      ( "yield-iter",
        [
          Alcotest.test_case "blocking element fn fires" `Quick
            test_yield_iter_seeded;
          Alcotest.test_case "wrappers and partial application" `Quick
            test_yield_iter_interprocedural;
          Alcotest.test_case "clean variants" `Quick test_yield_iter_clean;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "sweep-thunk global leak fires" `Quick
            test_domain_safety_sweep_leak;
          Alcotest.test_case "transitive reachability" `Quick
            test_domain_safety_transitive;
          Alcotest.test_case "Domain.spawn leak fires" `Quick
            test_domain_safety_domain_spawn;
          Alcotest.test_case "DLS slot ownership" `Quick
            test_domain_safety_dls_ownership;
          Alcotest.test_case "clean variants" `Quick
            test_domain_safety_clean_variants;
          Alcotest.test_case "record literals judged by their type" `Quick
            test_domain_safety_record_literals;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "live table walk on the dispatch path" `Quick
            test_fanout_table_iter;
          Alcotest.test_case "blocking fan-out per element" `Quick
            test_fanout_blocking_per_element;
          Alcotest.test_case "table projections" `Quick
            test_fanout_projection;
          Alcotest.test_case "Sim.Inttbl.fold is a table walk" `Quick
            test_fanout_inttbl_fold;
          Alcotest.test_case "Sim.Inttbl lookups and unserved folds are quiet"
            `Quick test_fanout_inttbl_quiet;
          Alcotest.test_case "a Hashtbl.Make instance's walk is a table walk"
            `Quick test_fanout_functor_table;
          Alcotest.test_case "cross-file handler reachability" `Quick
            test_fanout_cross_file_handler;
          Alcotest.test_case "handler through a forwarding wrapper" `Quick
            test_fanout_forwarding_wrapper;
          Alcotest.test_case "handlers in a forwarded procedure list" `Quick
            test_fanout_forwarded_procedure_list;
          Alcotest.test_case "wrapper that does not forward" `Quick
            test_fanout_wrapper_without_forwarding;
          Alcotest.test_case "bounded waiver idiom" `Quick
            test_fanout_bounded_waiver;
          Alcotest.test_case "bounded waivers judged live or stale" `Quick
            test_fanout_bounded_waiver_judged;
          Alcotest.test_case "clean variants" `Quick
            test_fanout_clean_variants;
        ] );
      ( "hot-alloc",
        [
          Alcotest.test_case "boxed Some and markers fire" `Quick
            test_hot_alloc_seeded;
          Alcotest.test_case "allocation constructs fire" `Quick
            test_hot_alloc_constructs;
          Alcotest.test_case "partial application" `Quick
            test_hot_alloc_partial_application;
          Alcotest.test_case "compiler-accurate exemptions" `Quick
            test_hot_alloc_exemptions;
        ] );
      ( "purity",
        [
          Alcotest.test_case "seeded impurities fire" `Quick
            test_purity_seeded;
          Alcotest.test_case "clean variants" `Quick
            test_purity_clean_variants;
        ] );
      ( "interface-drift",
        [
          Alcotest.test_case "dead val fires" `Quick
            test_interface_drift_seeded;
          Alcotest.test_case "module aliases resolve" `Quick
            test_interface_drift_alias_resolved;
          Alcotest.test_case "open attributes bare names" `Quick
            test_interface_drift_open_attributes;
          Alcotest.test_case "local opens and modules" `Quick
            test_interface_drift_local_scopes;
          Alcotest.test_case "only program callers count" `Quick
            test_interface_drift_program_callers;
          Alcotest.test_case "nested signatures and functor results" `Quick
            test_interface_drift_nested;
          Alcotest.test_case "test seam waiver" `Quick
            test_interface_drift_test_seam;
        ] );
      ( "driver",
        [
          Alcotest.test_case "missing .mli" `Quick test_missing_mli;
          Alcotest.test_case "waivers" `Quick test_waiver;
          Alcotest.test_case "stale waiver fires" `Quick test_stale_waiver;
          Alcotest.test_case "used waiver stays quiet" `Quick
            test_used_waiver_quiet;
          Alcotest.test_case "stale waivers of rules that ran" `Quick
            test_stale_waiver_rules;
          Alcotest.test_case "waiver name boundary" `Quick
            test_waiver_name_boundary;
          Alcotest.test_case "parse errors are findings" `Quick
            test_parse_error;
          Alcotest.test_case "baseline semantics" `Quick test_baseline;
          Alcotest.test_case "baseline end-to-end" `Quick
            test_driver_end_to_end;
          Alcotest.test_case "finding formats" `Quick test_finding_format;
          Alcotest.test_case "pass registry" `Quick test_registry;
          Alcotest.test_case "rule subset filters" `Quick test_rule_filters;
          Alcotest.test_case "new-rule baseline round trip" `Quick
            test_new_rules_baseline_roundtrip;
          Alcotest.test_case "per-pass stats under an injected clock" `Quick
            test_stats;
          Alcotest.test_case "SARIF format" `Quick test_sarif_format;
          Alcotest.test_case "SARIF output is byte-deterministic" `Quick
            test_sarif_deterministic;
          Alcotest.test_case "JSON output is byte-deterministic" `Quick
            test_json_deterministic;
          Alcotest.test_case "tree is clean modulo the fan-out baseline"
            `Quick test_tree_is_clean;
        ] );
    ]
