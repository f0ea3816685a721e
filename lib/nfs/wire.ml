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

let enc () = Xdr.Enc.create ()

let dirop (call : call) ~proc ~dir name =
  let e = enc () in
  enc_fh e dir;
  Xdr.Enc.string e name;
  let d = Xdr.Dec.of_bytes (call ~proc (Xdr.Enc.to_bytes e)) in
  check d;
  let fh = dec_fh d in
  let attrs = dec_attrs d in
  (fh, attrs)

let lookup call ~dir name = dirop call ~proc:p_lookup ~dir name
let create call ~dir name = dirop call ~proc:p_create ~dir name
let mkdir call ~dir name = dirop call ~proc:p_mkdir ~dir name

let getattr (call : call) fh =
  let e = enc () in
  enc_fh e fh;
  let d = Xdr.Dec.of_bytes (call ~proc:p_getattr (Xdr.Enc.to_bytes e)) in
  check d;
  dec_attrs d

let setattr (call : call) fh ~size =
  let e = enc () in
  enc_fh e fh;
  Xdr.Enc.uint32 e size;
  let d = Xdr.Dec.of_bytes (call ~proc:p_setattr (Xdr.Enc.to_bytes e)) in
  check d;
  dec_attrs d

let read (call : call) fh ~index =
  let e = enc () in
  enc_fh e fh;
  Xdr.Enc.uint32 e index;
  let d = Xdr.Dec.of_bytes (call ~proc:p_read (Xdr.Enc.to_bytes e)) in
  check d;
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
  let d = Xdr.Dec.of_bytes (call ~proc (Xdr.Enc.to_bytes e)) in
  check d

let remove call ~dir name = name_op call ~proc:p_remove ~dir name
let rmdir call ~dir name = name_op call ~proc:p_rmdir ~dir name

let rename (call : call) ~fromdir fname ~todir tname =
  let e = enc () in
  enc_fh e fromdir;
  Xdr.Enc.string e fname;
  enc_fh e todir;
  Xdr.Enc.string e tname;
  let d = Xdr.Dec.of_bytes (call ~proc:p_rename (Xdr.Enc.to_bytes e)) in
  check d

let readdir (call : call) fh =
  let e = enc () in
  enc_fh e fh;
  let d = Xdr.Dec.of_bytes (call ~proc:p_readdir (Xdr.Enc.to_bytes e)) in
  check d;
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
  let d = Xdr.Dec.of_bytes (call ~proc:p_open (Xdr.Enc.to_bytes e)) in
  check d;
  let cache_enabled = Xdr.Dec.bool d in
  let version = Xdr.Dec.uint32 d in
  let prev_version = Xdr.Dec.uint32 d in
  let attrs = dec_attrs d in
  { cache_enabled; version; prev_version; attrs }

let snfs_close (call : call) fh ~write_mode =
  let e = enc () in
  enc_fh e fh;
  Xdr.Enc.bool e write_mode;
  let d = Xdr.Dec.of_bytes (call ~proc:p_close (Xdr.Enc.to_bytes e)) in
  check d

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

let reply_of e = { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let ok_enc () =
  let e = Xdr.Enc.create () in
  enc_status e (Ok ());
  e

let error_reply err =
  let e = Xdr.Enc.create () in
  enc_status e (Error err);
  reply_of e

let check_fh c (fh : fh) =
  if fh.fsid <> c.fsid then raise (Localfs.Error Localfs.Stale)

let with_errors f = try f () with Localfs.Error err -> error_reply err

let fh_attrs_reply ~ctx c ino =
  let attrs = Localfs.getattr ~ctx c.fs ino in
  let e = ok_enc () in
  enc_fh e { fsid = c.fsid; ino; gen = attrs.Localfs.gen };
  enc_attrs e attrs;
  reply_of e

let handle_basic c ~caller ~ctx ~proc d =
  let fs = c.fs in
  let handler () =
    with_errors @@ fun () ->
    if proc = p_lookup then begin
      let dir = dec_fh d in
      check_fh c dir;
      let name = Xdr.Dec.string d in
      fh_attrs_reply ~ctx c (Localfs.lookup ~ctx fs ~dir:dir.ino name)
    end
    else if proc = p_getattr then begin
      let fh = dec_fh d in
      check_fh c fh;
      (* snfs-lint: allow yield-race — fs is set at server creation *)
      let attrs = Localfs.getattr ~ctx fs fh.ino in
      let e = ok_enc () in
      enc_attrs e attrs;
      reply_of e
    end
    else if proc = p_setattr then begin
      let fh = dec_fh d in
      check_fh c fh;
      let size = Xdr.Dec.uint32 d in
      Localfs.setattr ~ctx fs fh.ino ~size ();
      let attrs = Localfs.getattr ~ctx fs fh.ino in
      let e = ok_enc () in
      enc_attrs e attrs;
      reply_of e
    end
    else if proc = p_read then begin
      let fh = dec_fh d in
      check_fh c fh;
      let index = Xdr.Dec.uint32 d in
      let stamp, len = Localfs.read_block ~ctx fs fh.ino ~index in
      (match c.on_read with
      | Some f -> f ~ino:fh.ino ~caller ~ctx
      | None -> ());
      let e = ok_enc () in
      Xdr.Enc.uint32 e stamp;
      Xdr.Enc.uint32 e len;
      (* the data block rides back as bulk payload *)
      { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = len }
    end
    else if proc = p_write then begin
      let fh = dec_fh d in
      check_fh c fh;
      let index = Xdr.Dec.uint32 d in
      let stamp = Xdr.Dec.uint32 d in
      let len = Xdr.Dec.uint32 d in
      (* stable storage before replying *)
      Localfs.write_block ~ctx fs fh.ino ~index ~stamp ~len `Sync;
      (match c.on_write with
      | Some f -> f ~ino:fh.ino ~caller ~ctx
      | None -> ());
      let attrs = Localfs.getattr ~ctx fs fh.ino in
      let e = ok_enc () in
      enc_attrs e attrs;
      reply_of e
    end
    else if proc = p_create then begin
      let dir = dec_fh d in
      check_fh c dir;
      let name = Xdr.Dec.string d in
      fh_attrs_reply ~ctx c (Localfs.create_file ~ctx fs ~dir:dir.ino name)
    end
    else if proc = p_mkdir then begin
      let dir = dec_fh d in
      check_fh c dir;
      let name = Xdr.Dec.string d in
      fh_attrs_reply ~ctx c (Localfs.mkdir ~ctx fs ~dir:dir.ino name)
    end
    else if proc = p_remove then begin
      let dir = dec_fh d in
      check_fh c dir;
      let name = Xdr.Dec.string d in
      let ino = Localfs.lookup ~ctx fs ~dir:dir.ino name in
      Localfs.remove ~ctx fs ~dir:dir.ino name;
      (match c.on_remove with Some f -> f ~ino ~ctx | None -> ());
      reply_of (ok_enc ())
    end
    else if proc = p_rmdir then begin
      let dir = dec_fh d in
      check_fh c dir;
      let name = Xdr.Dec.string d in
      Localfs.rmdir ~ctx fs ~dir:dir.ino name;
      reply_of (ok_enc ())
    end
    else if proc = p_rename then begin
      let fromdir = dec_fh d in
      check_fh c fromdir;
      let fname = Xdr.Dec.string d in
      let todir = dec_fh d in
      check_fh c todir;
      let tname = Xdr.Dec.string d in
      Localfs.rename ~ctx fs ~fromdir:fromdir.ino fname ~todir:todir.ino tname;
      reply_of (ok_enc ())
    end
    else if proc = p_readdir then begin
      let fh = dec_fh d in
      check_fh c fh;
      let names = Localfs.readdir ~ctx fs ~dir:fh.ino in
      let e = ok_enc () in
      Xdr.Enc.array e (Xdr.Enc.string e) names;
      reply_of e
    end
    else assert false
  in
  (* membership test as a literal-string match (a comparison tree),
     not a [List.mem] scan with polymorphic equality — this runs once
     per served RPC. The literals are the basic [p_*] names. *)
  match proc with
  | "lookup" | "getattr" | "setattr" | "read" | "write" | "create" | "remove"
  | "mkdir" | "rmdir" | "rename" | "readdir" ->
      Some (handler ())
  | _ -> None
