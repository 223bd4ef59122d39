(** The disk discipline both persistent stores share: the run cache
    ({!Exp_store}) and the fleet's profile segments ({!Fleet_store}).

    A store directory is prepared once at open ({!prepare_dir}), entries
    are written whole by temp file plus rename ({!write_file}), and
    every entry carries an MD5 trailer written and checked with {!Bin}.
    Every failure is a structured {!Dcg.parse_error}, never an
    exception. *)

(** Low-level binary wire format: unsigned LEB128 varints over
    zigzag-mapped ints (small magnitudes stay short, negatives legal),
    length-prefixed strings, and an MD5 trailer over everything that
    precedes it.  Readers are bounds-checked: malformed input raises
    {!Bin.Malformed}, which the codecs turn into a structured error. *)
module Bin : sig
  type writer

  val writer : unit -> writer
  val byte : writer -> int -> unit

  (** Append bytes verbatim, no length prefix (file magics). *)
  val raw : writer -> string -> unit

  val int : writer -> int -> unit
  val str : writer -> string -> unit

  (** The accumulated bytes plus a 16-byte raw MD5 digest of them. *)
  val contents_with_digest : writer -> string

  exception Malformed of string

  type reader

  (** [reader ~pos s] reads [s] from [pos] up to [limit] (default: end
      of [s]). *)
  val reader : ?pos:int -> ?limit:int -> string -> reader

  val rbyte : reader -> int
  val rint : reader -> int
  val rstr : reader -> string
  val pos : reader -> int
  val at_end : reader -> bool

  (** Verify the 16-byte digest trailer of [s] over [s[0..len-17]];
      [false] when too short or mismatched. *)
  val check_digest : string -> bool
end

(** Create [dir] (and parents) if missing.  [Error] carries a
    structured diagnostic: permission denied, or a path component that
    exists but is not a directory.  Concurrent creation by another
    worker is tolerated. *)
val ensure_dir : string -> (unit, Dcg.parse_error) result

(** {!ensure_dir}, plus: sweep stray [pepsim-*.tmp] files left by a
    crash between temp-write and rename (they are never read, only
    accumulate), and probe that the directory is actually writable so
    an unusable store directory surfaces as one diagnostic at open
    instead of a silent recompute on every run.  Call when opening a
    store directory. *)
val prepare_dir : string -> (unit, Dcg.parse_error) result

(** Read a whole file as bytes; [Error] is a structured diagnostic. *)
val read_file : string -> (string, Dcg.parse_error) result

(** Atomically (a [pepsim-*.tmp] file in the target directory, then
    rename) write [contents] to [file], creating missing
    directories. *)
val write_file : file:string -> string -> (unit, Dcg.parse_error) result
