type fh = { fsid : int; ino : int; gen : int }

let enc_fh e { fsid; ino; gen } =
  Xdr.Enc.uint32 e fsid;
  Xdr.Enc.uint32 e ino;
  Xdr.Enc.uint32 e gen

let dec_fh d =
  let fsid = Xdr.Dec.uint32 d in
  let ino = Xdr.Dec.uint32 d in
  let gen = Xdr.Dec.uint32 d in
  { fsid; ino; gen }

let ftype_code = function Localfs.File -> 1 | Localfs.Dir -> 2

let ftype_of_code = function
  | 1 -> Localfs.File
  | 2 -> Localfs.Dir
  | c -> raise (Xdr.Error (Printf.sprintf "bad ftype %d" c))

let enc_attrs e (a : Localfs.attrs) =
  Xdr.Enc.enum e (ftype_code a.ftype);
  Xdr.Enc.uint32 e a.ino;
  Xdr.Enc.uint32 e a.gen;
  Xdr.Enc.uint32 e a.size;
  Xdr.Enc.uint32 e a.nlink;
  Xdr.Enc.float64 e a.mtime;
  Xdr.Enc.float64 e a.ctime

let dec_attrs d : Localfs.attrs =
  let ftype = ftype_of_code (Xdr.Dec.enum d) in
  let ino = Xdr.Dec.uint32 d in
  let gen = Xdr.Dec.uint32 d in
  let size = Xdr.Dec.uint32 d in
  let nlink = Xdr.Dec.uint32 d in
  let mtime = Xdr.Dec.float64 d in
  let ctime = Xdr.Dec.float64 d in
  { ino; gen; ftype; size; nlink; mtime; ctime }

let status_code = function
  | Ok () -> 0
  | Error Localfs.Noent -> 2
  | Error Localfs.Exist -> 17
  | Error Localfs.Notdir -> 20
  | Error Localfs.Isdir -> 21
  | Error Localfs.Notempty -> 66
  | Error Localfs.Stale -> 70
  | Error Localfs.Again -> 11

let status_of_code = function
  | 0 -> Ok ()
  | 2 -> Error Localfs.Noent
  | 17 -> Error Localfs.Exist
  | 20 -> Error Localfs.Notdir
  | 21 -> Error Localfs.Isdir
  | 66 -> Error Localfs.Notempty
  | 70 -> Error Localfs.Stale
  | 11 -> Error Localfs.Again
  | c -> raise (Xdr.Error (Printf.sprintf "bad status %d" c))

let enc_status e s = Xdr.Enc.enum e (status_code s)
let dec_status d = status_of_code (Xdr.Dec.enum d)

let fh_codec = { Xdr.enc = enc_fh; dec = dec_fh }
let attrs_codec = { Xdr.enc = enc_attrs; dec = dec_attrs }

(* [cb_ctx] is the causal context of the client operation that induced
   this callback (0 = none): the receiving client tags the work it does
   on the callback's behalf with the inducing operation, closing the
   cross-host causal chain. *)
type callback_args = {
  cb_fh : fh;
  cb_writeback : bool;
  cb_invalidate : bool;
  cb_ctx : int;
}

let callback_codec =
  Xdr.map
    ~inj:(fun (cb_fh, (cb_writeback, cb_invalidate, cb_ctx)) ->
      { cb_fh; cb_writeback; cb_invalidate; cb_ctx })
    ~prj:(fun c -> (c.cb_fh, (c.cb_writeback, c.cb_invalidate, c.cb_ctx)))
    (Xdr.pair fh_codec (Xdr.triple Xdr.bool Xdr.bool Xdr.ctx))

let enc_callback = callback_codec.enc
let dec_callback = callback_codec.dec

type open_reply = {
  cache_enabled : bool;
  version : int;
  prev_version : int;
  attrs : Localfs.attrs;
}

(* ---- procedures ---- *)

type ('a, 'r) procedure = {
  name : string;
  args : 'a Xdr.codec;
  res : 'r Xdr.codec;
  args_bulk : 'a -> int option;
  res_bulk : 'r -> int;
}

let proc name args res =
  { name; args; res; args_bulk = (fun _ -> None); res_bulk = (fun _ -> 0) }

module Proc = struct
  let dirop name =
    proc name (Xdr.pair fh_codec Xdr.string) (Xdr.pair fh_codec attrs_codec)

  let lookup = dirop "lookup"
  let create = dirop "create"
  let mkdir = dirop "mkdir"
  let getattr = proc "getattr" fh_codec attrs_codec
  let setattr = proc "setattr" (Xdr.pair fh_codec Xdr.uint32) attrs_codec

  (* the data block rides back as bulk payload *)
  let read =
    { (proc "read" (Xdr.pair fh_codec Xdr.uint32)
         (Xdr.pair Xdr.uint32 Xdr.uint32))
      with
      res_bulk = snd }

  (* (file, (index, stamp, len)); the data itself rides as bulk payload *)
  let write =
    { (proc "write"
         (Xdr.pair fh_codec (Xdr.triple Xdr.uint32 Xdr.uint32 Xdr.uint32))
         attrs_codec)
      with
      args_bulk = (fun (_, (_, _, len)) -> Some len) }

  let remove = proc "remove" (Xdr.pair fh_codec Xdr.string) Xdr.unit
  let rmdir = proc "rmdir" (Xdr.pair fh_codec Xdr.string) Xdr.unit

  let rename =
    proc "rename"
      (Xdr.pair (Xdr.pair fh_codec Xdr.string) (Xdr.pair fh_codec Xdr.string))
      Xdr.unit

  let readdir = proc "readdir" fh_codec (Xdr.list Xdr.string)

  let snfs_open =
    proc "open" (Xdr.pair fh_codec Xdr.bool)
      (Xdr.map
         ~inj:(fun ((cache_enabled, version, prev_version), attrs) ->
           { cache_enabled; version; prev_version; attrs })
         ~prj:(fun r -> ((r.cache_enabled, r.version, r.prev_version), r.attrs))
         (Xdr.pair (Xdr.triple Xdr.bool Xdr.uint32 Xdr.uint32) attrs_codec))

  let rfs_open =
    proc "open" (Xdr.pair fh_codec Xdr.bool) (Xdr.pair Xdr.uint32 attrs_codec)

  let close = proc "close" (Xdr.pair fh_codec Xdr.bool) Xdr.unit
  let ping = proc "ping" Xdr.unit Xdr.uint32

  let reopen =
    proc "reopen"
      (Xdr.list
         (Xdr.pair
            (Xdr.triple Xdr.uint32 Xdr.uint32 Xdr.uint32)
            (Xdr.triple Xdr.bool Xdr.bool Xdr.uint32)))
      Xdr.unit

  let callback = proc "callback" callback_codec Xdr.unit
end

let data_procs = [ Proc.read.name; Proc.write.name ]

(* ---- client stubs ---- *)

type call = proc:string -> ?bulk:int -> bytes -> bytes

let invoke (call : call) p a =
  let e = Xdr.Enc.create () in
  p.args.enc e a;
  let bulk = p.args_bulk a in
  let d = Xdr.Dec.of_bytes (call ~proc:p.name ?bulk (Xdr.Enc.to_bytes e)) in
  (match dec_status d with Ok () -> () | Error e -> raise (Localfs.Error e));
  let r = p.res.dec d in
  Xdr.Dec.check_done d;
  r

let lookup call ~dir name = invoke call Proc.lookup (dir, name)
let create call ~dir name = invoke call Proc.create (dir, name)
let mkdir call ~dir name = invoke call Proc.mkdir (dir, name)
let getattr call fh = invoke call Proc.getattr fh
let setattr call fh ~size = invoke call Proc.setattr (fh, size)
let read call fh ~index = invoke call Proc.read (fh, index)

let write call fh ~index ~stamp ~len =
  invoke call Proc.write (fh, (index, stamp, len))

let remove call ~dir name = invoke call Proc.remove (dir, name)
let rmdir call ~dir name = invoke call Proc.rmdir (dir, name)

let rename call ~fromdir fname ~todir tname =
  invoke call Proc.rename ((fromdir, fname), (todir, tname))

let readdir call fh = invoke call Proc.readdir fh
let snfs_open call fh ~write_mode = invoke call Proc.snfs_open (fh, write_mode)
let snfs_close call fh ~write_mode = invoke call Proc.close (fh, write_mode)

(* ---- server side ---- *)

type entry = string * Netsim.Rpc.handler

let error_reply err =
  let e = Xdr.Enc.create () in
  enc_status e (Error err);
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

(* an unknown procedure: how a hybrid client learns that a plain NFS
   server rejects open and close (Section 6.1) *)
let unknown ~caller:_ ~ctx:_ _ = error_reply Localfs.Stale

let serves p f =
  ( p.name,
    fun ~caller ~ctx d ->
      let args = p.args.dec d in
      Xdr.Dec.check_done d;
      match f ~caller:(Netsim.Net.Host.addr caller) ~ctx args with
      | r ->
          let e = Xdr.Enc.create () in
          enc_status e (Ok ());
          p.res.enc e r;
          { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = p.res_bulk r }
      | exception Localfs.Error err -> error_reply err )

let before p f (procs : entry list) =
  List.map
    (fun ((name, handler) as entry) ->
      if not (String.equal name p.name) then entry
      else
        ( name,
          fun ~caller ~ctx d ->
            (* the handler would refuse a byte left over, so the
               prologue must not act on the request either *)
            let args =
              let d = Xdr.Dec.clone d in
              let args = p.args.dec d in
              Xdr.Dec.check_done d;
              args
            in
            match f ~caller:(Netsim.Net.Host.addr caller) ~ctx args with
            | () -> handler ~caller ~ctx d
            | exception Localfs.Error err -> error_reply err ))
    procs

(* Hooks receive [ctx], the causal context of the triggering client
   operation, so consistency actions they induce (RFS invalidations)
   can be attributed to it. *)
type server_core = {
  fsid : int;
  fs : Localfs.t;
  on_read : (ino:int -> caller:int -> ctx:Obs.Causal.t -> unit) option;
  on_write : (ino:int -> caller:int -> ctx:Obs.Causal.t -> unit) option;
  on_remove : (ino:int -> ctx:Obs.Causal.t -> unit) option;
}

let make_server_core ~fsid fs ?on_read ?on_write ?on_remove () =
  { fsid; fs; on_read; on_write; on_remove }

let core_fsid c = c.fsid
let core_fs c = c.fs

let root_fh c = { fsid = c.fsid; ino = Localfs.root c.fs; gen = 1 }

(* The basic procedures. Data writes go to the disk synchronously
   (Section 2.3: "writes are always synchronous with the disk at the
   server"). [ctx] flows down to the file system, buffer cache and
   disk. *)
let basic c =
  (* the inode a request's file handle names, if it is of this file
     system *)
  let ino (fh : fh) =
    if fh.fsid <> c.fsid then raise (Localfs.Error Localfs.Stale);
    fh.ino
  in
  let fh_attrs ~ctx ino =
    let attrs = Localfs.getattr ~ctx c.fs ino in
    ({ fsid = c.fsid; ino; gen = attrs.Localfs.gen }, attrs)
  in
  let dirop p
      (op : ?ctx:Obs.Causal.t -> Localfs.t -> dir:int -> string -> int) =
    serves p (fun ~caller:_ ~ctx (dir, name) ->
        fh_attrs ~ctx (op ~ctx c.fs ~dir:(ino dir) name))
  in
  [
    dirop Proc.lookup Localfs.lookup;
    serves Proc.getattr (fun ~caller:_ ~ctx fh ->
        Localfs.getattr ~ctx c.fs (ino fh));
    serves Proc.setattr (fun ~caller:_ ~ctx (fh, size) ->
        let ino = ino fh in
        Localfs.setattr ~ctx c.fs ino ~size ();
        Localfs.getattr ~ctx c.fs ino);
    serves Proc.read (fun ~caller ~ctx (fh, index) ->
        let ino = ino fh in
        let block = Localfs.read_block ~ctx c.fs ino ~index in
        (match c.on_read with Some f -> f ~ino ~caller ~ctx | None -> ());
        block);
    serves Proc.write (fun ~caller ~ctx (fh, (index, stamp, len)) ->
        let ino = ino fh in
        (* stable storage before replying *)
        Localfs.write_block ~ctx c.fs ino ~index ~stamp ~len `Sync;
        (match c.on_write with Some f -> f ~ino ~caller ~ctx | None -> ());
        Localfs.getattr ~ctx c.fs ino);
    dirop Proc.create Localfs.create_file;
    dirop Proc.mkdir Localfs.mkdir;
    serves Proc.remove (fun ~caller:_ ~ctx (dir, name) ->
        let dir = ino dir in
        let ino = Localfs.lookup ~ctx c.fs ~dir name in
        Localfs.remove ~ctx c.fs ~dir name;
        match c.on_remove with Some f -> f ~ino ~ctx | None -> ());
    serves Proc.rmdir (fun ~caller:_ ~ctx (dir, name) ->
        Localfs.rmdir ~ctx c.fs ~dir:(ino dir) name);
    serves Proc.rename
      (fun ~caller:_ ~ctx ((fromdir, fname), (todir, tname)) ->
        Localfs.rename ~ctx c.fs ~fromdir:(ino fromdir) fname
          ~todir:(ino todir) tname);
    serves Proc.readdir (fun ~caller:_ ~ctx fh ->
        Localfs.readdir ~ctx c.fs ~dir:(ino fh));
  ]

(* ---- the one serve site ---- *)

type server = {
  rpc : Netsim.Rpc.t;
  host : Netsim.Net.Host.t;
  engine : Sim.Engine.t;
  service : Netsim.Rpc.service;
  callback_prog : string;
  callback_tokens : Sim.Semaphore.t;
}

let callback_prog ~prog ~fsid = prog ^ "_cb." ^ string_of_int fsid

let serve rpc host ~prog ~threads core procs =
  if threads < 2 then invalid_arg "Wire.serve: need at least 2 threads";
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  {
    rpc;
    host;
    engine;
    service = Netsim.Rpc.serve rpc host ~prog ~threads ~unknown procs;
    callback_prog = callback_prog ~prog ~fsid:core.fsid;
    callback_tokens = Sim.Semaphore.create engine (threads - 1);
  }

let service srv = srv.service
let callback_tokens srv = srv.callback_tokens
let client srv addr = Netsim.Net.Host.by_addr (Netsim.Rpc.net srv.rpc) addr

let event srv ~cat ~name args =
  if Obs.Trace.on () then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now srv.engine)
      ~cat ~name
      ~track:(Netsim.Net.Host.name srv.host)
      ~args ()

(* ---- the one callback channel ---- *)

let callback srv ~impatient ~ctx ~target ~instant p args =
  if Obs.Trace.on () then instant ();
  (* the flow arrow ties the work induced on the client back to the
     inducing client operation *)
  if Obs.Causal.live ctx then
    Obs.Trace.flow_start
      ~ts:(Sim.Engine.now srv.engine)
      ~track:(Netsim.Net.Host.name srv.host)
      ~id:(Obs.Causal.id ctx) ();
  let config = Netsim.Rpc.config srv.rpc in
  let config = if impatient then Netsim.Rpc.impatient config else config in
  let e = Xdr.Enc.create () in
  p.args.enc e args;
  match
    Netsim.Rpc.call srv.rpc ~config ~ctx ~src:srv.host ~dst:target
      ~prog:srv.callback_prog ~proc:p.name ?bulk:(p.args_bulk args)
      (Xdr.Enc.to_bytes e)
  with
  | _reply -> true
  | exception Netsim.Rpc.Timeout _ -> false
