(** On-disk storage for experiment run payloads.

    One file per (workload, size, seed, configuration) run, keyed by a
    composite identity that embeds digests of the compiled program and
    cost model (built by {!Exp_cache}).  Every entry is one compact
    binary format written whole through {!Durable}: magic, version,
    identity key, the payload, and an MD5 trailer.  Loading validates
    version, content digest, identity key and record shape before
    returning anything.  Any other file under an entry's name (damaged,
    stale, an older format, a future version) is unrecognised: the load
    returns a structured {!Dcg.parse_error}, and the caller recomputes
    and overwrites it instead of trusting or crashing on it. *)

(** Everything needed to rebuild an {!Exp_harness.run} without executing
    the application: the measurement, the sample count, and the
    collected profile tables in their [to_lines] serialization. *)
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

(** [filename ~dir file_key] is the store path for a run identity:
    [dir/<md5 hex of file_key>.run]. *)
val filename : dir:string -> string -> string

(** The full entry bytes for a payload under its identity key.  Profile
    lines whose fields are all canonical integers are packed as varint
    rows; anything else is stored as length-prefixed strings, so
    {!decode} inverts it on arbitrary payloads. *)
val encode : key:string -> payload -> string

(** Decode entry bytes, verifying magic, version, digest, key and
    shape; [file] only labels diagnostics. *)
val decode :
  file:string -> key:string -> string -> (payload, Dcg.parse_error) result

(** Persist a payload under [key] ({!Durable.write_file}).  All I/O
    failures are structured errors, never exceptions. *)
val save : file:string -> key:string -> payload -> (unit, Dcg.parse_error) result

(** [Ok None] when no entry exists; [Error _] for an entry that is
    stale (key mismatch), corrupt (digest mismatch), truncated,
    unreadable, or not in the current format. *)
val load :
  file:string -> key:string -> (payload option, Dcg.parse_error) result
