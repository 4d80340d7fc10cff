(* Persistent on-disk cache of layered groundings.

   A layered grounding ({!Asp.Ground.layered}) is plain data — interned
   atom store, join indexes, ground rules, derivation edges — so it
   marshals directly. Entries are keyed by a content hash over the
   program text, the rendered base facts, and the buildcache digest:
   any change to the repo encoding, the logic program, or the pool
   lands on a different key, so a stale file can never be served (it
   is simply never looked up again). Files are written to a temp name
   and renamed into place, making concurrent writers (several
   processes warming up at once) safe: last rename wins and both wrote
   identical bytes for identical keys. *)

let magic = "spackml-groundcache\x01"

(* Bump whenever the marshaled shape changes ([Asp.Ground.layered] or
   anything it embeds): Marshal is not type-safe, so the version check
   is what stands between an old file and a segfault. *)
let format_version = 4

let key ~program ~pool = Chash.hash_string (program ^ "\x00" ^ pool)

let path ~dir key = Filename.concat dir ("ground-" ^ key ^ ".bin")

let mem ~dir key = Sys.file_exists (path ~dir key)

let save ?(obs = Obs.disabled) ~dir key (layered : Asp.Ground.layered) =
  try
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    let file = path ~dir key in
    if Sys.file_exists file then false
    else begin
      let tmp =
        Printf.sprintf "%s.tmp.%d" file (Unix.getpid ())
      in
      let oc = open_out_bin tmp in
      (try
         output_string oc magic;
         output_binary_int oc format_version;
         Marshal.to_channel oc layered [];
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      Sys.rename tmp file;
      Obs.incr obs "groundcache.saves";
      true
    end
  with Sys_error _ | Unix.Unix_error _ -> false

let load ?(obs = Obs.disabled) ~dir key =
  let file = path ~dir key in
  match open_in_bin file with
  | exception Sys_error _ ->
    Obs.incr obs "groundcache.misses";
    None
  | ic ->
    let r =
      try
        let m = really_input_string ic (String.length magic) in
        if not (String.equal m magic) then None
        else if input_binary_int ic <> format_version then None
        else Some (Marshal.from_channel ic : Asp.Ground.layered)
      with End_of_file | Failure _ | Sys_error _ -> None
    in
    close_in_noerr ic;
    Obs.incr obs
      (match r with Some _ -> "groundcache.hits" | None -> "groundcache.misses");
    r
