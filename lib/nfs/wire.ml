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

let p_lookup = "lookup"
let p_getattr = "getattr"
let p_setattr = "setattr"
let p_read = "read"
let p_write = "write"
let p_create = "create"
let p_remove = "remove"
let p_mkdir = "mkdir"
let p_rmdir = "rmdir"
let p_rename = "rename"
let p_readdir = "readdir"
let p_open = "open"
let p_close = "close"
let p_callback = "callback"
let p_ping = "ping"
let p_reopen = "reopen"

let data_procs = [ p_read; p_write ]

(* ---- client stubs ---- *)

type call = proc:string -> ?bulk:int -> bytes -> bytes

let check d =
  match dec_status d with Ok () -> () | Error e -> raise (Localfs.Error e)

let request (call : call) ~proc e =
  let d = Xdr.Dec.of_bytes (call ~proc (Xdr.Enc.to_bytes e)) in
  check d;
  d

let enc () = Xdr.Enc.create ()

let dirop (call : call) ~proc ~dir name =
  let e = enc () in
  enc_fh e dir;
  Xdr.Enc.string e name;
  let d = request call ~proc e in
  let fh = dec_fh d in
  let attrs = dec_attrs d in
  (fh, attrs)

let lookup call ~dir name = dirop call ~proc:p_lookup ~dir name
let create call ~dir name = dirop call ~proc:p_create ~dir name
let mkdir call ~dir name = dirop call ~proc:p_mkdir ~dir name

let getattr (call : call) fh =
  let e = enc () in
  enc_fh e fh;
  let d = request call ~proc:p_getattr e in
  dec_attrs d

let setattr (call : call) fh ~size =
  let e = enc () in
  enc_fh e fh;
  Xdr.Enc.uint32 e size;
  let d = request call ~proc:p_setattr e in
  dec_attrs d

let read (call : call) fh ~index =
  let e = enc () in
  enc_fh e fh;
  Xdr.Enc.uint32 e index;
  let d = request call ~proc:p_read e in
  let stamp = Xdr.Dec.uint32 d in
  let len = Xdr.Dec.uint32 d in
  (stamp, len)

let write (call : call) fh ~index ~stamp ~len =
  let e = enc () in
  enc_fh e fh;
  Xdr.Enc.uint32 e index;
  Xdr.Enc.uint32 e stamp;
  Xdr.Enc.uint32 e len;
  (* the data itself rides as bulk payload *)
  let d = Xdr.Dec.of_bytes (call ~proc:p_write ~bulk:len (Xdr.Enc.to_bytes e)) in
  check d;
  dec_attrs d

let name_op (call : call) ~proc ~dir name =
  let e = enc () in
  enc_fh e dir;
  Xdr.Enc.string e name;
  ignore (request call ~proc e)

let remove call ~dir name = name_op call ~proc:p_remove ~dir name
let rmdir call ~dir name = name_op call ~proc:p_rmdir ~dir name

let rename (call : call) ~fromdir fname ~todir tname =
  let e = enc () in
  enc_fh e fromdir;
  Xdr.Enc.string e fname;
  enc_fh e todir;
  Xdr.Enc.string e tname;
  ignore (request call ~proc:p_rename e)

let readdir (call : call) fh =
  let e = enc () in
  enc_fh e fh;
  let d = request call ~proc:p_readdir e in
  Xdr.Dec.array d Xdr.Dec.string

type open_reply = {
  cache_enabled : bool;
  version : int;
  prev_version : int;
  attrs : Localfs.attrs;
}

let snfs_open (call : call) fh ~write_mode =
  let e = enc () in
  enc_fh e fh;
  Xdr.Enc.bool e write_mode;
  let d = request call ~proc:p_open e in
  let cache_enabled = Xdr.Dec.bool d in
  let version = Xdr.Dec.uint32 d in
  let prev_version = Xdr.Dec.uint32 d in
  let attrs = dec_attrs d in
  { cache_enabled; version; prev_version; attrs }

let snfs_close (call : call) fh ~write_mode =
  let e = enc () in
  enc_fh e fh;
  Xdr.Enc.bool e write_mode;
  ignore (request call ~proc:p_close e)

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

let enc_callback e { cb_fh; cb_writeback; cb_invalidate; cb_ctx } =
  enc_fh e cb_fh;
  Xdr.Enc.bool e cb_writeback;
  Xdr.Enc.bool e cb_invalidate;
  Xdr.Enc.ctx e cb_ctx

let dec_callback d =
  let cb_fh = dec_fh d in
  let cb_writeback = Xdr.Dec.bool d in
  let cb_invalidate = Xdr.Dec.bool d in
  let cb_ctx = Xdr.Dec.ctx d in
  { cb_fh; cb_writeback; cb_invalidate; cb_ctx }

(* ---- replies ---- *)

let reply_of e = { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let ok_enc () =
  let e = Xdr.Enc.create () in
  enc_status e (Ok ());
  e

let error_reply err =
  let e = Xdr.Enc.create () in
  enc_status e (Error err);
  reply_of e

let read_reply ~stamp ~len =
  let e = ok_enc () in
  Xdr.Enc.uint32 e stamp;
  Xdr.Enc.uint32 e len;
  (* the data block rides back as bulk payload *)
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = len }

(* a dispatcher's "not mine", told apart from every real reply by
   physical equality, so passing a call on allocates nothing *)
let pass = reply_of (Xdr.Enc.create ())

(* ---- server core ---- *)

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

(* the inode a request's file handle names, if it is of this file
   system *)
let ino_arg c d =
  let fh = dec_fh d in
  if fh.fsid <> c.fsid then raise (Localfs.Error Localfs.Stale);
  fh.ino

let fh_attrs_reply ~ctx c ino =
  let attrs = Localfs.getattr ~ctx c.fs ino in
  let e = ok_enc () in
  enc_fh e { fsid = c.fsid; ino; gen = attrs.Localfs.gen };
  enc_attrs e attrs;
  reply_of e

let attrs_reply attrs =
  let e = ok_enc () in
  enc_attrs e attrs;
  reply_of e

(* Execute a basic procedure, or [pass] if [proc] is not one. Data
   writes go to the disk synchronously (Section 2.3: "writes are
   always synchronous with the disk at the server"). [ctx] flows down
   to the file system, buffer cache and disk. *)
let handle_basic c ~caller ~ctx ~proc d =
  let fs = c.fs in
  try
    if proc = p_lookup then
      let dir = ino_arg c d in
      fh_attrs_reply ~ctx c (Localfs.lookup ~ctx fs ~dir (Xdr.Dec.string d))
    else if proc = p_getattr then
      (* snfs-lint: allow yield-race — fs is set at server creation *)
      attrs_reply (Localfs.getattr ~ctx fs (ino_arg c d))
    else if proc = p_setattr then begin
      let ino = ino_arg c d in
      Localfs.setattr ~ctx fs ino ~size:(Xdr.Dec.uint32 d) ();
      attrs_reply (Localfs.getattr ~ctx fs ino)
    end
    else if proc = p_read then begin
      let ino = ino_arg c d in
      let index = Xdr.Dec.uint32 d in
      let stamp, len = Localfs.read_block ~ctx fs ino ~index in
      (match c.on_read with Some f -> f ~ino ~caller ~ctx | None -> ());
      read_reply ~stamp ~len
    end
    else if proc = p_write then begin
      let ino = ino_arg c d in
      let index = Xdr.Dec.uint32 d in
      let stamp = Xdr.Dec.uint32 d in
      let len = Xdr.Dec.uint32 d in
      (* stable storage before replying *)
      Localfs.write_block ~ctx fs ino ~index ~stamp ~len `Sync;
      (match c.on_write with Some f -> f ~ino ~caller ~ctx | None -> ());
      attrs_reply (Localfs.getattr ~ctx fs ino)
    end
    else if proc = p_create then
      let dir = ino_arg c d in
      let name = Xdr.Dec.string d in
      fh_attrs_reply ~ctx c (Localfs.create_file ~ctx fs ~dir name)
    else if proc = p_mkdir then
      let dir = ino_arg c d in
      fh_attrs_reply ~ctx c (Localfs.mkdir ~ctx fs ~dir (Xdr.Dec.string d))
    else if proc = p_remove then begin
      let dir = ino_arg c d in
      let name = Xdr.Dec.string d in
      let ino = Localfs.lookup ~ctx fs ~dir name in
      Localfs.remove ~ctx fs ~dir name;
      (match c.on_remove with Some f -> f ~ino ~ctx | None -> ());
      reply_of (ok_enc ())
    end
    else if proc = p_rmdir then begin
      let dir = ino_arg c d in
      Localfs.rmdir ~ctx fs ~dir (Xdr.Dec.string d);
      reply_of (ok_enc ())
    end
    else if proc = p_rename then begin
      let fromdir = ino_arg c d in
      let fname = Xdr.Dec.string d in
      let todir = ino_arg c d in
      Localfs.rename ~ctx fs ~fromdir fname ~todir (Xdr.Dec.string d);
      reply_of (ok_enc ())
    end
    else if proc = p_readdir then begin
      let names = Localfs.readdir ~ctx fs ~dir:(ino_arg c d) in
      let e = ok_enc () in
      Xdr.Enc.array e (Xdr.Enc.string e) names;
      reply_of e
    end
    else pass
  with Localfs.Error err -> error_reply err

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

let serve rpc host ~prog ~threads core dispatch =
  if threads < 2 then invalid_arg "Wire.serve: need at least 2 threads";
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let handler ~caller ~ctx ~proc dec =
    let caller = Netsim.Net.Host.addr caller in
    let reply = dispatch ~caller ~ctx ~proc dec in
    if reply != pass then reply
    else
      let reply = handle_basic core ~caller ~ctx ~proc dec in
      (* an unknown procedure: how a hybrid client learns that a plain
         NFS server rejects open and close (Section 6.1) *)
      if reply != pass then reply else error_reply Localfs.Stale
  in
  {
    rpc;
    host;
    engine;
    service = Netsim.Rpc.serve rpc host ~prog ~threads handler;
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

let callback srv ~impatient ~ctx ~target ~proc ~instant e =
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
  match
    Netsim.Rpc.call srv.rpc ~config ~ctx ~src:srv.host ~dst:target
      ~prog:srv.callback_prog ~proc (Xdr.Enc.to_bytes e)
  with
  | _reply -> true
  | exception Netsim.Rpc.Timeout _ -> false
