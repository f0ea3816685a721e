let dir = "/data"
let bytes = 1024 * 1024

type result = { write_close : float; reread_same : float; read_other : float }

let run ctx =
  let same = dir ^ "/reread.same" in
  let other = dir ^ "/reread.other" in
  (* the "different file" pre-exists and is not in any cache *)
  Vfs.Fileio.write_file ctx.App.mounts other ~bytes;
  let write_close, () =
    App.timed ctx (fun () ->
        Vfs.Fileio.write_file ctx.App.mounts same ~bytes)
  in
  let reread_same, _ =
    App.timed ctx (fun () -> Vfs.Fileio.read_file ctx.App.mounts same)
  in
  let read_other, _ =
    App.timed ctx (fun () -> Vfs.Fileio.read_file ctx.App.mounts other)
  in
  { write_close; reread_same; read_other }
