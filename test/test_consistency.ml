(* The consistency oracle.

   Random sequences of file operations are executed by several clients,
   serialized (no two operations overlap). A pure model tracks what
   every read must observe. SNFS and RFS guarantee consistency for
   serialized cross-client access; the "fixed" NFS client (no
   invalidate-on-close bug) provides close-to-open consistency most of
   the time but, being probabilistic, is exercised only as a smoke
   test, not an oracle.

   Also: the same oracle under network message loss — retransmission
   and duplicate suppression must not break consistency. *)

module Stack = Experiments.Stack
module Cluster = Experiments.Cluster

open Harness

type op =
  | Write of int * int * int (* client, file, blocks *)
  | Read of int * int (* client, file *)
  | Delete of int * int
  | Truncate of int * int

let nclients = 3

let nfiles = 4

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun c f b -> Write (c, f, 1 + b))
            (int_bound (nclients - 1))
            (int_bound (nfiles - 1))
            (int_bound 3) );
        ( 4,
          map2 (fun c f -> Read (c, f)) (int_bound (nclients - 1))
            (int_bound (nfiles - 1)) );
        ( 1,
          map2 (fun c f -> Delete (c, f)) (int_bound (nclients - 1))
            (int_bound (nfiles - 1)) );
        ( 1,
          map2 (fun c f -> Truncate (c, f)) (int_bound (nclients - 1))
            (int_bound (nfiles - 1)) );
      ])

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Write (c, f, b) -> Printf.sprintf "w%d/%d(%d)" c f b
             | Read (c, f) -> Printf.sprintf "r%d/%d" c f
             | Delete (c, f) -> Printf.sprintf "d%d/%d" c f
             | Truncate (c, f) -> Printf.sprintf "t%d/%d" c f)
           ops))
    QCheck.Gen.(list_size (int_range 5 40) op_gen)

(* run the op list through real clients over a given protocol; return
   the number of stale or missing observations *)
let run_trace ?(jitter = 0.0) ~drop ~make_clients ops =
  run_sim (fun e ->
      let cluster = Cluster.create e in
      let mounts = make_clients cluster in
      let net = cluster.Cluster.net in
      Netsim.Net.set_drop_probability net drop;
      ignore jitter;
      if jitter > 0.0 then Netsim.Net.set_jitter net jitter;
      (* model: latest stamp per file, None when absent/empty *)
      let model : (int, int option) Hashtbl.t = Hashtbl.create 8 in
      let path f = Printf.sprintf "/f%d" f in
      let violations = ref 0 in
      let debug = Sys.getenv_opt "ORACLE_DEBUG" <> None in
      let note op reason =
        incr violations;
        if debug then Printf.eprintf "[oracle] violation at %s: %s\n%!" op reason
      in
      ignore note;
      List.iter
        (fun op ->
          (* serialize: let all deferred work settle between ops *)
          (match op with
          | Write (c, f, blocks) ->
              let m = List.nth mounts c in
              let fd = Vfs.Fileio.creat m (path f) in
              let stamp = Vfs.Fileio.write fd ~len:(blocks * 4096) in
              Vfs.Fileio.close fd;
              Hashtbl.replace model f (Some stamp)
          | Read (c, f) -> (
              let m = List.nth mounts c in
              match Hashtbl.find_opt model f with
              | None -> (
                  (* file should not exist at all *)
                  match Vfs.Fileio.read_file m (path f) with
                  | n ->
                      note
                        (Printf.sprintf "r%d/%d" c f)
                        (Printf.sprintf "read %d bytes of absent file" n)
                  | exception Localfs.Error Localfs.Noent -> ())
              | Some None -> (
                  (* exists, truncated to empty *)
                  match Vfs.Fileio.read_file m (path f) with
                  | 0 -> ()
                  | n ->
                      note
                        (Printf.sprintf "r%d/%d" c f)
                        (Printf.sprintf "read %d bytes of empty file" n)
                  | exception Localfs.Error Localfs.Noent ->
                      note (Printf.sprintf "r%d/%d" c f) "Noent for empty file")
              | Some (Some expected) -> (
                  match Vfs.Fileio.openf m (path f) Vfs.Fs.Read_only with
                  | fd ->
                      let observed = Vfs.Fileio.read fd ~len:1_000_000 in
                      Vfs.Fileio.close fd;
                      if observed = [] then
                        note (Printf.sprintf "r%d/%d" c f) "empty, expected data"
                      else
                        List.iter
                          (fun (s, _) ->
                            if s <> expected then
                              note
                                (Printf.sprintf "r%d/%d" c f)
                                (Printf.sprintf "stamp %d, expected %d" s
                                   expected))
                          observed
                  | exception Localfs.Error Localfs.Noent ->
                      note (Printf.sprintf "r%d/%d" c f) "Noent, expected data"))
          | Delete (c, f) -> (
              let m = List.nth mounts c in
              match Vfs.Fileio.unlink m (path f) with
              | () -> Hashtbl.remove model f
              | exception Localfs.Error Localfs.Noent -> (
                  match Hashtbl.find_opt model f with
                  | None -> ()
                  | Some _ ->
                      note (Printf.sprintf "d%d/%d" c f) "Noent unlinking"))
          | Truncate (c, f) -> (
              let m = List.nth mounts c in
              (* creat of an existing file truncates it *)
              if Vfs.Fileio.exists m (path f) then begin
                Vfs.Fileio.close (Vfs.Fileio.creat m (path f));
                Hashtbl.replace model f None
              end));
          Sim.Engine.sleep e 0.2)
        ops;
      !violations)

(* [nclients] hosts mounting one server with [protocol]; client i is
   named [name ^ i] *)
let clients name protocol cluster =
  let server =
    Cluster.serve cluster ~fsid:1 (Option.get (Stack.kind_of protocol))
  in
  List.init nclients (fun i ->
      (Cluster.mount cluster server ~host:(Printf.sprintf "c%d" i)
         ~name:(Printf.sprintf "%s%d" name i) protocol)
        .Cluster.mounts)

let snfs_clients = clients "snfs" (Stack.default Stack.Snfs)
let snfs_dc_clients = clients "snfsdc" (List.assoc "snfs-dc" Stack.presets)
let kent_clients = clients "kent" (Stack.default Stack.Kent)
let rfs_clients = clients "rfs" (Stack.default Stack.Rfs)

let prop_snfs_consistent =
  QCheck.Test.make ~name:"SNFS: serialized cross-client ops are consistent"
    ~count:40 ops_arbitrary (fun ops ->
      run_trace ~drop:0.0 ~make_clients:snfs_clients ops = 0)

let prop_snfs_delayed_close_consistent =
  QCheck.Test.make
    ~name:"SNFS + delayed close: still consistent" ~count:30 ops_arbitrary
    (fun ops -> run_trace ~drop:0.0 ~make_clients:snfs_dc_clients ops = 0)

let prop_rfs_consistent =
  QCheck.Test.make ~name:"RFS: serialized cross-client ops are consistent"
    ~count:30 ops_arbitrary (fun ops ->
      run_trace ~drop:0.0 ~make_clients:rfs_clients ops = 0)

let prop_kent_consistent =
  QCheck.Test.make
    ~name:"Kent block protocol: serialized cross-client ops are consistent"
    ~count:30 ops_arbitrary (fun ops ->
      run_trace ~drop:0.0 ~make_clients:kent_clients ops = 0)

let prop_snfs_consistent_with_jitter =
  (* 200 ms of delivery jitter reorders messages: retransmissions
     become the delayed duplicates of Section 3.2, absorbed by the
     duplicate-request caches *)
  QCheck.Test.make
    ~name:"SNFS: consistent under loss + reordering jitter" ~count:20
    ops_arbitrary (fun ops ->
      run_trace ~jitter:0.2 ~drop:0.03 ~make_clients:snfs_clients ops = 0)

let prop_snfs_consistent_with_loss =
  (* 5% loss: retransmission and duplicate suppression keep the
     protocol consistent. (At much higher loss rates the server can
     mistake a live client for a dead one after exhausting callback
     retries and sacrifice its dirty data — behaviour the paper accepts
     for genuinely dead clients, Section 3.2.) *)
  QCheck.Test.make
    ~name:"SNFS: consistent under 5% message loss" ~count:20 ops_arbitrary
    (fun ops -> run_trace ~drop:0.05 ~make_clients:snfs_clients ops = 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "consistency"
    [
      ( "oracle",
        qc
          [
            prop_snfs_consistent;
            prop_snfs_delayed_close_consistent;
            prop_rfs_consistent;
            prop_kent_consistent;
            prop_snfs_consistent_with_loss;
            prop_snfs_consistent_with_jitter;
          ] );
    ]
