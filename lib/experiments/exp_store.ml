(* On-disk storage for experiment run payloads.

   One file per (workload, size, seed, configuration) run, named by the
   MD5 of that identity so a cache directory can be shared across
   sweeps.  The bytes inside are one compact binary format
   (varint-packed profile rows, raw MD5 trailer, Durable.Bin), written
   whole by Durable.write_file.

   The composite key embeds digests of the compiled program and the
   cost model (see Exp_cache), so a stale entry — same file name,
   different program — fails the key comparison; a damaged entry fails
   the digest or shape checks; anything that is not this format's
   current version (an older text-format entry, a future version, a
   stray file) is unrecognised.  Either way the caller gets a
   structured [Dcg.parse_error] and recomputes and overwrites; a load
   never crashes and never returns a partially-filled payload. *)

type payload = {
  iter1 : int;
  iter2 : int;
  compile : int;
  checksum : int;
  n_samples : int;
  pep_paths : string list;
  pep_edges : string list;
  ppaths : string list;
  pedges : string list;
}

module Bin = Durable.Bin

let filename ~dir file_key =
  Filename.concat dir (Digest.to_hex (Digest.string file_key) ^ ".run")

let err file reason = { Dcg.file = Some file; line = 0; text = ""; reason }

exception Fail of Dcg.parse_error

let magic = "PEPRUN"
let version = 2

(* A profile line whose fields are all integers in canonical rendering
   is stored as a varint row; anything else (and any line whose
   re-rendering would differ, e.g. "007" or double spaces) falls back to
   a raw string so encode∘decode is the identity on arbitrary input. *)
let pack_line l =
  match String.split_on_char ' ' l with
  | [] -> None
  | toks -> (
      match
        List.map
          (fun t -> match int_of_string_opt t with
            | Some v when t <> "" && string_of_int v = t -> Some v
            | _ -> None)
          toks
      with
      | ints when List.for_all Option.is_some ints ->
          Some (List.map Option.get ints)
      | _ -> None)

let encode ~key p =
  let w = Bin.writer () in
  Bin.raw w magic;
  Bin.byte w version;
  Bin.str w key;
  Bin.int w p.iter1;
  Bin.int w p.iter2;
  Bin.int w p.compile;
  Bin.int w p.checksum;
  Bin.int w p.n_samples;
  let section lines =
    let packed =
      let rows = List.map pack_line lines in
      if List.for_all Option.is_some rows then
        Some (List.map Option.get rows)
      else None
    in
    match packed with
    | Some rows ->
        Bin.byte w 0;
        Bin.int w (List.length rows);
        List.iter
          (fun row ->
            Bin.int w (List.length row);
            List.iter (Bin.int w) row)
          rows
    | None ->
        Bin.byte w 1;
        Bin.int w (List.length lines);
        List.iter (Bin.str w) lines
  in
  section p.pep_paths;
  section p.pep_edges;
  section p.ppaths;
  section p.pedges;
  Bin.contents_with_digest w

let decode ~file ~key contents =
  let fail reason = raise (Fail (err file reason)) in
  try
    let n = String.length contents in
    if n < String.length magic + 1 then fail "truncated cache entry";
    if String.sub contents 0 (String.length magic) <> magic then
      fail "not a pepsim run-cache file";
    let v = Char.code contents.[String.length magic] in
    if v <> version then
      fail (Fmt.str "unsupported cache version v%d (want v%d)" v version);
    (* digest first: any flipped or missing byte is rejected before the
       body is interpreted at all *)
    if n < String.length magic + 1 + 16 then
      fail "truncated cache entry (missing digest trailer)";
    if not (Bin.check_digest contents) then
      fail "corrupt cache entry (content digest mismatch)";
    let r = Bin.reader ~pos:(String.length magic + 1) ~limit:(n - 16) contents in
    let stored = Bin.rstr r in
    if stored <> key then
      fail
        (Fmt.str
           "stale cache entry: key mismatch (expected %S, found %S) — \
            program, cost model or format changed since it was written"
           key stored);
    let iter1 = Bin.rint r in
    let iter2 = Bin.rint r in
    let compile = Bin.rint r in
    let checksum = Bin.rint r in
    let n_samples = Bin.rint r in
    let section name =
      let tag = Bin.rbyte r in
      let k = Bin.rint r in
      if k < 0 then fail (Fmt.str "negative %s section length" name);
      match tag with
      | 0 ->
          List.init k (fun _ ->
              let arity = Bin.rint r in
              if arity < 0 then fail (Fmt.str "bad %s row arity" name);
              String.concat " "
                (List.init arity (fun _ -> string_of_int (Bin.rint r))))
      | 1 -> List.init k (fun _ -> Bin.rstr r)
      | t -> fail (Fmt.str "unknown %s section tag %d" name t)
    in
    let pep_paths = section "pep.paths" in
    let pep_edges = section "pep.edges" in
    let ppaths = section "ppaths" in
    let pedges = section "pedges" in
    if not (Bin.at_end r) then fail "trailing garbage in cache entry";
    Ok
      {
        iter1;
        iter2;
        compile;
        checksum;
        n_samples;
        pep_paths;
        pep_edges;
        ppaths;
        pedges;
      }
  with
  | Fail e -> Error e
  | Bin.Malformed m -> Error (err file ("truncated cache entry (" ^ m ^ ")"))

let save ~file ~key p = Durable.write_file ~file (encode ~key p)

let load ~file ~key =
  if not (Sys.file_exists file) then Ok None
  else
    match Durable.read_file file with
    | Error _ as e -> e
    | Ok contents -> Result.map Option.some (decode ~file ~key contents)
