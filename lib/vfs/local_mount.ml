let make lfs =
  let rec fs =
    lazy
      {
        Fs.fs_name = Localfs.name lfs;
        block_size = Localfs.block_size;
        root = (fun () -> vn (Localfs.root lfs));
        lookup = (fun ~dir name -> vn (Localfs.lookup lfs ~dir:dir.Fs.vid name));
        create = (fun ~dir name -> vn (Localfs.create_file lfs ~dir:dir.Fs.vid name));
        mkdir = (fun ~dir name -> vn (Localfs.mkdir lfs ~dir:dir.Fs.vid name));
        remove = (fun ~dir name -> Localfs.remove lfs ~dir:dir.Fs.vid name);
        rmdir = (fun ~dir name -> Localfs.rmdir lfs ~dir:dir.Fs.vid name);
        rename =
          (fun ~fromdir fname ~todir tname ->
            Localfs.rename lfs ~fromdir:fromdir.Fs.vid fname ~todir:todir.Fs.vid
              tname);
        readdir = (fun d -> Localfs.readdir lfs ~dir:d.Fs.vid);
        getattr = (fun v -> Localfs.getattr lfs v.Fs.vid);
        setattr = (fun v ~size -> Localfs.setattr lfs v.Fs.vid ~size ());
        fs_open = (fun _ _ -> ());
        fs_close = (fun _ _ -> ());
        read_block = (fun v ~index -> Localfs.read_block lfs v.Fs.vid ~index);
        write_block =
          (fun v ~index ~stamp ~len ->
            Localfs.write_block lfs v.Fs.vid ~index ~stamp ~len `Delayed);
        fsync = (fun v -> Localfs.fsync lfs v.Fs.vid);
      }
  and vn vid = { Fs.fs = Lazy.force fs; vid } in
  Lazy.force fs
