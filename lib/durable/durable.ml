(* The disk discipline both persistent stores share: directory
   preparation, whole-file atomic writes, and the binary wire format
   with its MD5 trailer.  See durable.mli. *)

let err file reason = { Dcg.file = Some file; line = 0; text = ""; reason }

(* --------------------------- binary wire --------------------------- *)

module Bin = struct
  type writer = Buffer.t

  let writer () = Buffer.create 512
  let byte w b = Buffer.add_char w (Char.chr (b land 0xff))
  let raw w s = Buffer.add_string w s

  (* zigzag so small magnitudes of either sign stay short, then
     unsigned LEB128 over the 63-bit pattern ([lsr] is logical, so the
     loop terminates for negative intermediates too) *)
  let int w n =
    let rec put u =
      if u land lnot 0x7f = 0 then byte w u
      else begin
        byte w (u land 0x7f lor 0x80);
        put (u lsr 7)
      end
    in
    put ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let str w s =
    int w (String.length s);
    Buffer.add_string w s

  let contents_with_digest w =
    let body = Buffer.contents w in
    body ^ Digest.string body

  exception Malformed of string

  type reader = { s : string; limit : int; mutable p : int }

  let reader ?(pos = 0) ?limit s =
    let limit = match limit with Some l -> l | None -> String.length s in
    if pos < 0 || limit > String.length s || pos > limit then
      raise (Malformed "reader bounds out of range");
    { s; limit; p = pos }

  let rbyte r =
    if r.p >= r.limit then raise (Malformed "unexpected end of input");
    let b = Char.code r.s.[r.p] in
    r.p <- r.p + 1;
    b

  let rint r =
    let rec go shift acc =
      if shift > 56 then raise (Malformed "varint too long");
      let b = rbyte r in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    let u = go 0 0 in
    (u lsr 1) lxor ~-(u land 1)

  let rstr r =
    let len = rint r in
    if len < 0 || len > r.limit - r.p then
      raise (Malformed "string length out of range");
    let s = String.sub r.s r.p len in
    r.p <- r.p + len;
    s

  let pos r = r.p
  let at_end r = r.p = r.limit

  let check_digest s =
    let n = String.length s in
    n >= 16
    && String.equal (Digest.string (String.sub s 0 (n - 16))) (String.sub s (n - 16) 16)
end

(* ------------------------- store directories ----------------------- *)

let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (err dir "store path exists but is not a directory")
  else begin
    let parent = Filename.dirname dir in
    match if parent = dir then Ok () else ensure_dir parent with
    | Error _ as e -> e
    | Ok () -> (
        match Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error m ->
            (* tolerate a concurrent worker creating it first; anything
               else (permissions, parent replaced by a file) surfaces *)
            if Sys.file_exists dir && Sys.is_directory dir then Ok ()
            else Error (err dir ("cannot create store directory: " ^ m)))
  end

(* Every store writes its temp files under this one prefix.  A crash
   between [Filename.temp_file] and the rename in [write_file] leaves a
   stray [pepsim-*.tmp] behind; it is never read (loads go by exact
   final name) but would accumulate, so sweep on store open. *)
let tmp_prefix = "pepsim-"

let sweep_tmp dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun f ->
          if
            String.starts_with ~prefix:tmp_prefix f
            && Filename.check_suffix f ".tmp"
          then
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        entries
  | exception Sys_error _ -> ()

let prepare_dir dir =
  match ensure_dir dir with
  | Error _ as e -> e
  | Ok () ->
      sweep_tmp dir;
      (* probe writability now, so an unusable store directory surfaces
         as one structured diagnostic at open instead of a silent
         recompute-every-run *)
      let probe = Filename.concat dir ".pepsim-writable" in
      (match Out_channel.with_open_bin probe (fun _ -> ()) with
      | () ->
          (try Sys.remove probe with Sys_error _ -> ());
          Ok ()
      | exception Sys_error m ->
          Error (err dir ("store directory is not writable: " ^ m)))

(* --------------------------- raw file I/O -------------------------- *)

let read_file file =
  try
    Ok
      (In_channel.with_open_bin file (fun ic ->
           In_channel.input_all ic))
  with Sys_error m -> Error (err file ("unreadable: " ^ m))

(* Atomic byte-level write (temp file in the target directory, then
   rename), shared by the run cache and the fleet segment store. *)
let write_file ~file contents =
  try
    let dir = Filename.dirname file in
    match ensure_dir dir with
    | Error _ as e -> e
    | Ok () -> (
        let tmp = Filename.temp_file ~temp_dir:dir tmp_prefix ".tmp" in
        try
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc contents);
          Sys.rename tmp file;
          Ok ()
        with Sys_error m ->
          (try Sys.remove tmp with Sys_error _ -> ());
          Error (err file ("write failed: " ^ m)))
  with Sys_error m -> Error (err file ("write failed: " ^ m))
