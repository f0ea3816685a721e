(* Print the MD5 of each file named on the command line, in md5sum's
   "digest  name" layout, so a multi-megabyte run artifact can be
   pinned by a one-line golden file. *)

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    Printf.printf "%s  %s\n"
      (Digest.to_hex (Digest.file path))
      (Filename.basename path)
  done
