(* Interprocedural may-yield effect inference.

   A fixpoint over the whole-program call graph computing, for every
   toplevel binding in the tree, whether calling it can reach a
   cooperative blocking point (Engine sleep/suspend, Ivar waits,
   Rpc.call, disk and cache waits, ...). Seeds are (a) nodes
   whose own id matches a primitive blocking suffix — [Sim.Engine.sleep]
   IS the primitive; its body has nothing deeper to point at — and
   (b) nodes whose body applies a primitive suffix in synchronous
   position (outside deferred thunks). The effect then propagates up
   the synchronous reference edges: referencing a may-yield binding
   outside a deferred thunk makes the referrer may-yield, which
   over-approximates higher-order flow (a yielding function passed to
   [List.iter] taints the caller even though the head is [List.iter]).

   [pass_yield_race] consumes the summaries through [blocking_head]:
   an application head that *resolves* is judged by its inferred
   summary (a pure function named [read] in a module named [Cache] is
   no longer presumed blocking — fewer false positives than the old
   per-module suffix heuristic), and only an unresolvable head falls
   back to the primitive suffix match. *)

let blocking_suffixes =
  [
    [ "Engine"; "sleep" ];
    [ "Engine"; "suspend" ];
    [ "Ivar"; "read" ];
    [ "Resource"; "use" ];
    [ "Semaphore"; "with_unit" ];
    [ "Waitgroup"; "wait" ];
    [ "Rpc"; "call" ];
    [ "Disk"; "read" ];
    [ "Disk"; "write" ];
    [ "Cache"; "read" ];
    [ "Cache"; "write" ];
    [ "Cache"; "flush_file" ];
    [ "Cache"; "flush_all" ];
    [ "Cache"; "flush_block" ];
    [ "Cache"; "wait_pending" ];
    [ "Wire"; "read" ];
    [ "Wire"; "write" ];
    [ "Wire"; "lookup" ];
    [ "Wire"; "getattr" ];
    [ "Wire"; "setattr" ];
    [ "Wire"; "create" ];
    [ "Wire"; "mkdir" ];
    [ "Wire"; "remove" ];
    [ "Wire"; "rmdir" ];
    [ "Wire"; "rename" ];
    [ "Wire"; "readdir" ];
    [ "Wire"; "snfs_open" ];
    [ "Wire"; "snfs_close" ];
  ]

let deferring_suffixes = Callgraph.default_defer

let is_primitive p = List.exists (Astutil.has_suffix p) blocking_suffixes

let may_yield cg =
  let summary : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  (* reverse synchronous edges, for worklist propagation *)
  let callers : (string, string list) Hashtbl.t = Hashtbl.create 256 in
  let nodes = Callgraph.nodes cg in
  List.iter
    (fun (n : Callgraph.node) ->
      List.iter
        (fun callee ->
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt callers callee)
          in
          Hashtbl.replace callers callee (n.Callgraph.id :: prev))
        (Callgraph.sync_refs cg n.Callgraph.id))
    nodes;
  let queue = Queue.create () in
  let mark id =
    if not (Hashtbl.mem summary id) then begin
      Hashtbl.replace summary id ();
      Queue.add id queue
    end
  in
  List.iter
    (fun (n : Callgraph.node) ->
      let id_path = n.Callgraph.module_path @ [ n.Callgraph.name ] in
      if is_primitive id_path then mark n.Callgraph.id
      else if List.exists is_primitive (Callgraph.sync_heads cg n.Callgraph.id)
      then mark n.Callgraph.id)
    nodes;
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some id ->
        List.iter mark (Option.value ~default:[] (Hashtbl.find_opt callers id));
        drain ()
  in
  drain ();
  summary

(* Is an application with head path [p], written in [file] inside
   [module_path], a blocking call? Resolved heads trust the inferred
   summary; unresolvable heads (externals, locals the graph cannot
   name) fall back to the primitive suffix match. *)
let blocking_head cg summary ~file ~module_path p =
  match Callgraph.resolve_at cg ~file ~module_path p with
  | [] -> is_primitive p
  | ids -> List.exists (Hashtbl.mem summary) ids

(* Does an expression contain a blocking application in synchronous
   position? Used by passes that must judge a lambda body (the thunk
   handed to an iterator) rather than a toplevel binding. *)
let expr_blocks cg summary ~file ~module_path e =
  let open Parsetree in
  let found = ref false in
  let rec expr ~sync it e =
    if !found then ()
    else
      let e = Astutil.uncurry_pipes e in
      match e.pexp_desc with
      | Pexp_ident { txt; _ } when sync -> (
          match Astutil.flatten txt with
          | Some p ->
              if blocking_head cg summary ~file ~module_path p then
                found := true
          | None -> ())
      | Pexp_apply (head, args) ->
          (match Astutil.path_of_expr head with
          | Some p when List.exists (Astutil.has_suffix p) deferring_suffixes
            ->
              List.iter
                (fun (_, a) ->
                  let sync' = sync && not (Astutil.is_lambda a) in
                  expr ~sync:sync' it a)
                args
          | _ ->
              expr ~sync it head;
              List.iter (fun (_, a) -> expr ~sync it a) args)
      | _ ->
          let sub _it child = expr ~sync it child in
          let it' = { it with Ast_iterator.expr = sub } in
          Ast_iterator.default_iterator.expr it' e
  in
  expr ~sync:true Ast_iterator.default_iterator e;
  !found
