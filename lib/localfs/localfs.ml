type ino = int

type ftype = File | Dir

type attrs = {
  ino : ino;
  gen : int;
  ftype : ftype;
  size : int;
  nlink : int;
  mtime : float;
  ctime : float;
}

type error = Noent | Exist | Notdir | Isdir | Notempty | Stale | Again

exception Error of error

let error_to_string = function
  | Noent -> "no such file or directory"
  | Exist -> "file exists"
  | Notdir -> "not a directory"
  | Isdir -> "is a directory"
  | Notempty -> "directory not empty"
  | Stale -> "stale file handle"
  | Again -> "resource temporarily unavailable"

let fail e = raise (Error e)

type meta_policy = [ `Sync | `Delayed ]

type inode = {
  i_ino : ino;
  i_gen : int;
  i_ftype : ftype;
  mutable i_size : int;
  mutable i_nlink : int;
  mutable i_mtime : float;
  i_ctime : float;
  i_entries : (string, ino) Hashtbl.t option; (* Some for directories *)
}

type t = {
  engine : Sim.Engine.t;
  name : string;
  block_size : int;
  meta_policy : meta_policy;
  cache : Blockcache.Cache.t;
  (* Dense array indexed by ino, not a hash table: inos are small
     consecutive ints from [next_ino], and [get_inode] runs on every
     fs operation (often several times). [None] marks free slots. *)
  mutable inodes : inode option array;
  mutable next_ino : ino;
  mutable meta_stamp : int;
}

(* The inode table lives in a pseudo-file of the buffer cache so that
   structural writes cost real disk traffic. *)
let inode_table_fid = -1

(* Indirect blocks live in another pseudo-file: one per inode. Blocks
   past the direct range force an indirect-block update, which is part
   of why an NFS synchronous write costs 2-3 disk operations. *)
let indirect_fid = -2

let direct_blocks = 12

let inodes_per_block = 32

let root_ino = 2

let create engine ~name ~disk ~cache_blocks ?(block_size = 4096)
    ?(meta_policy = `Delayed) () =
  (* abstract disk layout: each file's blocks are contiguous, so
     sequential file I/O pays positioning only once per extent *)
  let disk_address ~file ~index =
    if file = inode_table_fid then 1_000_000_000 + index
    else if file = indirect_fid then 1_100_000_000 + index
    else (file * 16_384) + index
  in
  let backend =
    {
      Blockcache.Cache.read_block =
        (fun ~ctx ~file ~index ->
          Diskm.Disk.read
            ~at:(disk_address ~file ~index)
            ~ctx disk ~bytes:block_size;
          (0, block_size));
      write_block =
        (fun ~ctx ~file ~index ~stamp:_ ~len:_ ->
          Diskm.Disk.write
            ~at:(disk_address ~file ~index)
            ~ctx disk ~bytes:block_size);
    }
  in
  let cache =
    Blockcache.Cache.create engine ~name:(name ^ ".bufcache")
      ~capacity_blocks:cache_blocks ~block_size backend
  in
  let t =
    {
      engine;
      name;
      block_size;
      meta_policy;
      cache;
      inodes = Array.make 256 None;
      next_ino = root_ino;
      meta_stamp = 1_000_000_000;
    }
  in
  let root =
    {
      i_ino = root_ino;
      i_gen = 1;
      i_ftype = Dir;
      i_size = 0;
      i_nlink = 2;
      i_mtime = 0.0;
      i_ctime = 0.0;
      i_entries = Some (Hashtbl.create 16);
    }
  in
  t.inodes.(root_ino) <- Some root;
  t.next_ino <- root_ino + 1;
  t

let name t = t.name
let block_size t = t.block_size

let start_syncer t ?min_age ~interval () =
  Blockcache.Cache.start_syncer t.cache ?min_age ~interval ()

let root _t = root_ino

let next_meta_stamp t =
  t.meta_stamp <- t.meta_stamp + 1;
  t.meta_stamp

let set_inode t ino inode =
  let cap = Array.length t.inodes in
  if ino >= cap then begin
    let bigger = Array.make (max (2 * cap) (ino + 1)) None in
    Array.blit t.inodes 0 bigger 0 cap;
    t.inodes <- bigger
  end;
  t.inodes.(ino) <- Some inode

let drop_inode t ino =
  if ino >= 0 && ino < Array.length t.inodes then t.inodes.(ino) <- None

let get_inode t ino =
  if ino >= 0 && ino < Array.length t.inodes then
    match Array.unsafe_get t.inodes ino with
    | Some i -> i
    | None -> fail Stale
  else fail Stale

let inode_block_index ino = ino / inodes_per_block

(* Charge a read of the inode-table block holding [ino] (usually a
   cache hit once warm). *)
let read_inode_block ?ctx t ino =
  ignore
    (Blockcache.Cache.read ?ctx t.cache ~file:inode_table_fid
       ~index:(inode_block_index ino))

let meta_mode t : [ `Sync | `Async | `Delayed ] =
  match t.meta_policy with `Sync -> `Sync | `Delayed -> `Delayed

(* Charge a write of the inode-table block holding [ino]. *)
let write_inode_block ?ctx t ino =
  Blockcache.Cache.write ?ctx t.cache ~file:inode_table_fid
    ~index:(inode_block_index ino) ~stamp:(next_meta_stamp t)
    ~len:t.block_size (meta_mode t)

let dir_entries inode =
  match inode.i_entries with
  | Some entries -> entries
  | None -> fail Notdir

(* Directory contents live in the directory's own pseudo-file; an entry
   hashes to a block so big directories cost more than small ones. *)
let dir_block_of_name t inode name =
  let nblocks = max 1 ((inode.i_size + t.block_size - 1) / t.block_size) in
  Hashtbl.hash name mod nblocks

let read_dir_block ?ctx t inode name =
  ignore
    (Blockcache.Cache.read ?ctx t.cache ~file:inode.i_ino
       ~index:(dir_block_of_name t inode name))

let write_dir_block ?ctx t inode name =
  Blockcache.Cache.write ?ctx t.cache ~file:inode.i_ino
    ~index:(dir_block_of_name t inode name)
    ~stamp:(next_meta_stamp t) ~len:t.block_size (meta_mode t)

let dir_entry_bytes name = 16 + String.length name

let getattr ?ctx t ino =
  let i = get_inode t ino in
  read_inode_block ?ctx t ino;
  {
    ino = i.i_ino;
    gen = i.i_gen;
    ftype = i.i_ftype;
    size = i.i_size;
    nlink = i.i_nlink;
    mtime = i.i_mtime;
    ctime = i.i_ctime;
  }

let lookup ?ctx t ~dir name =
  let d = get_inode t dir in
  let entries = dir_entries d in
  read_dir_block ?ctx t d name;
  match Hashtbl.find_opt entries name with
  | Some ino -> ino
  | None -> fail Noent

let alloc_inode t ftype =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  let now = Sim.Engine.now t.engine in
  let inode =
    {
      i_ino = ino;
      i_gen = 1;
      i_ftype = ftype;
      i_size = 0;
      i_nlink = (match ftype with File -> 1 | Dir -> 2);
      i_mtime = now;
      i_ctime = now;
      i_entries = (match ftype with File -> None | Dir -> Some (Hashtbl.create 16));
    }
  in
  set_inode t ino inode;
  inode

let add_entry ?ctx t dir name ftype =
  let d = get_inode t dir in
  let entries = dir_entries d in
  read_dir_block ?ctx t d name;
  if Hashtbl.mem entries name then fail Exist;
  let inode = alloc_inode t ftype in
  Hashtbl.replace entries name inode.i_ino;
  d.i_size <- d.i_size + dir_entry_bytes name;
  d.i_mtime <- Sim.Engine.now t.engine;
  write_dir_block ?ctx t d name;
  write_inode_block ?ctx t d.i_ino;
  write_inode_block ?ctx t inode.i_ino;
  inode.i_ino

let create_file ?ctx t ~dir name = add_entry ?ctx t dir name File
let mkdir ?ctx t ~dir name = add_entry ?ctx t dir name Dir

let free_data t inode =
  (* dropping a file's dirty blocks without writing them is the
     write-aversion effect measured in Section 5.4 *)
  ignore (Blockcache.Cache.cancel_dirty t.cache ~file:inode.i_ino)

let remove ?ctx t ~dir name =
  let d = get_inode t dir in
  let entries = dir_entries d in
  read_dir_block ?ctx t d name;
  match Hashtbl.find_opt entries name with
  | None -> fail Noent
  | Some ino ->
      let inode = get_inode t ino in
      if inode.i_ftype = Dir then fail Isdir;
      Hashtbl.remove entries name;
      d.i_size <- max 0 (d.i_size - dir_entry_bytes name);
      d.i_mtime <- Sim.Engine.now t.engine;
      write_dir_block ?ctx t d name;
      inode.i_nlink <- inode.i_nlink - 1;
      if inode.i_nlink = 0 then begin
        free_data t inode;
        drop_inode t ino
      end;
      write_inode_block ?ctx t ino;
      write_inode_block ?ctx t d.i_ino

let rmdir ?ctx t ~dir name =
  let d = get_inode t dir in
  let entries = dir_entries d in
  read_dir_block ?ctx t d name;
  match Hashtbl.find_opt entries name with
  | None -> fail Noent
  | Some ino ->
      let inode = get_inode t ino in
      if inode.i_ftype <> Dir then fail Notdir;
      if Hashtbl.length (dir_entries inode) <> 0 then fail Notempty;
      Hashtbl.remove entries name;
      d.i_size <- max 0 (d.i_size - dir_entry_bytes name);
      d.i_mtime <- Sim.Engine.now t.engine;
      write_dir_block ?ctx t d name;
      drop_inode t ino;
      write_inode_block ?ctx t ino;
      write_inode_block ?ctx t d.i_ino

let rename ?ctx t ~fromdir fname ~todir tname =
  let fd = get_inode t fromdir in
  let fentries = dir_entries fd in
  read_dir_block ?ctx t fd fname;
  match Hashtbl.find_opt fentries fname with
  | None -> fail Noent
  | Some ino ->
      let td = get_inode t todir in
      let tentries = dir_entries td in
      read_dir_block ?ctx t td tname;
      (* clobber an existing target, Unix-style *)
      (match Hashtbl.find_opt tentries tname with
      | Some existing when existing <> ino ->
          let ei = get_inode t existing in
          if ei.i_ftype = Dir then fail Isdir;
          ei.i_nlink <- ei.i_nlink - 1;
          if ei.i_nlink = 0 then begin
            free_data t ei;
            drop_inode t existing
          end
      | Some _ | None -> ());
      Hashtbl.remove fentries fname;
      fd.i_size <- max 0 (fd.i_size - dir_entry_bytes fname);
      Hashtbl.replace tentries tname ino;
      td.i_size <- td.i_size + dir_entry_bytes tname;
      let now = Sim.Engine.now t.engine in
      fd.i_mtime <- now;
      td.i_mtime <- now;
      write_dir_block ?ctx t fd fname;
      write_dir_block ?ctx t td tname;
      write_inode_block ?ctx t fd.i_ino;
      write_inode_block ?ctx t td.i_ino

let readdir ?ctx t ~dir =
  let d = get_inode t dir in
  let entries = dir_entries d in
  (* scanning a directory reads all its blocks *)
  let nblocks = max 1 ((d.i_size + t.block_size - 1) / t.block_size) in
  for index = 0 to nblocks - 1 do
    ignore (Blockcache.Cache.read ?ctx t.cache ~file:d.i_ino ~index)
  done;
  (* snfs-fanout: bounded — one directory's entries; readdir is O(entries) *)
  Hashtbl.fold (fun name _ acc -> name :: acc) entries []
  |> List.sort String.compare

let setattr ?ctx t ino ?size ?mtime () =
  let i = get_inode t ino in
  read_inode_block ?ctx t ino;
  (match size with
  | None -> ()
  | Some size ->
      if size < 0 then invalid_arg "Localfs.setattr: negative size";
      if i.i_ftype = Dir then fail Isdir;
      if size = 0 && i.i_size > 0 then
        (* truncation drops all cached data, cancelling pending writes *)
        ignore (Blockcache.Cache.cancel_dirty t.cache ~file:ino);
      i.i_size <- size;
      i.i_mtime <- Sim.Engine.now t.engine);
  (match mtime with
  | None -> ()
  | Some m -> i.i_mtime <- m);
  write_inode_block ?ctx t ino

let read_block ?ctx t ino ~index =
  let i = get_inode t ino in
  if i.i_ftype = Dir then fail Isdir;
  if index < 0 then invalid_arg "Localfs.read_block: negative index";
  if index * t.block_size >= i.i_size then (0, 0) (* hole / EOF *)
  else begin
    let stamp, len = Blockcache.Cache.read ?ctx t.cache ~file:ino ~index in
    let valid = min len (i.i_size - (index * t.block_size)) in
    (stamp, valid)
  end

let write_block ?ctx t ino ~index ~stamp ~len mode =
  let i = get_inode t ino in
  if i.i_ftype = Dir then fail Isdir;
  if index < 0 then invalid_arg "Localfs.write_block: negative index";
  Blockcache.Cache.write ?ctx t.cache ~file:ino ~index ~stamp ~len mode;
  let endpos = (index * t.block_size) + len in
  if endpos > i.i_size then i.i_size <- endpos;
  i.i_mtime <- Sim.Engine.now t.engine;
  (* a synchronous data write carries its metadata to disk with it (the
     NFS server's stable-storage rule): the inode, and for blocks past
     the direct range the indirect block too; ordinary writes leave the
     metadata update delayed — Unix wrote inodes back periodically, not
     on every write system call *)
  match (mode, t.meta_policy) with
  | `Sync, `Sync ->
      Blockcache.Cache.write ?ctx t.cache ~file:inode_table_fid
        ~index:(inode_block_index ino) ~stamp:(next_meta_stamp t)
        ~len:t.block_size `Sync;
      if index >= direct_blocks then
        Blockcache.Cache.write ?ctx t.cache ~file:indirect_fid ~index:ino
          ~stamp:(next_meta_stamp t) ~len:t.block_size `Sync
  | (`Sync | `Async | `Delayed), _ ->
      Blockcache.Cache.write ?ctx t.cache ~file:inode_table_fid
        ~index:(inode_block_index ino) ~stamp:(next_meta_stamp t)
        ~len:t.block_size `Delayed;
      if index >= direct_blocks then
        Blockcache.Cache.write ?ctx t.cache ~file:indirect_fid ~index:ino
          ~stamp:(next_meta_stamp t) ~len:t.block_size `Delayed

let fsync ?ctx t ino =
  let _ = get_inode t ino in
  Blockcache.Cache.flush_file ?ctx t.cache ~file:ino;
  Blockcache.Cache.flush_file ?ctx t.cache ~file:inode_table_fid

let sync_all t = Blockcache.Cache.flush_all t.cache
