(** The one grammar every textual knob is written in.

    A knob's text is a list of clauses, each [key=value] or a bare
    flag [key].  A grammar is a table of {!field}s over a record: the
    table alone decides how a clause reads, how a record prints, which
    clauses print at all, and which input is rejected.  Unknown keys,
    repeated keys and values that do not read back whole (no trailing
    text, no out-of-range numbers) are all rejected with one structured
    {!error}.  Fault plans, alert rules, [gen:] specs, the sampling
    spec, fleet cohorts and the CLI's list and count options all read
    through this module. *)

(** Which clause or axis was rejected, the text it was given, and
    why. *)
type error = { axis : string; value : string; reason : string }

(** ["axis AXIS = VALUE rejected: REASON"]. *)
val error_to_string : error -> string

(** {1 Values} *)

(** How one value reads from text ([Error] carries the reason) and
    prints back; [read (show v) = Ok v] for every value a grammar
    accepts. *)
type 'v value = { read : string -> ('v, string) result; show : 'v -> string }

(** A decimal integer (optional leading [-], digits only) in
    [\[lo, hi\]]; each bound defaults to unbounded. *)
val int : ?lo:int -> ?hi:int -> unit -> int value

(** A probability or share: a decimal number in [\[0, 1\]], printed
    with {!float}. *)
val fraction : float value

(** Any non-empty text, taken verbatim. *)
val name : string value

(** One of a fixed set of spellings; [show] prints a value's first
    spelling. *)
val enum : (string * 'v) list -> 'v value

(** A comma-separated list of one or more values (see {!each}). *)
val list : 'v value -> 'v list value

(** [Some] of a present value; [show None] is empty, so a field of
    this type gives a [~shown] predicate that hides [None]. *)
val some : 'v value -> 'v option value

(** [v.read], rejections labelled with [axis] and the whole text. *)
val read : axis:string -> 'v value -> string -> ('v, error) result

(** [parse] over each element of a comma-separated list ({!split}: blank
    elements are dropped); at least one element, the first rejection
    wins. *)
val each :
  (string -> ('a, error) result) -> string -> ('a list, error) result

(** {1 Clause lists} *)

(** One key of a grammar over records of type ['r]. *)
type 'r field

(** [field key v get set] reads [key=TEXT] with [v] into [set], and
    prints [key=] [v.show (get r)] whenever [shown r] (default:
    always). *)
val field :
  ?shown:('r -> bool) ->
  string ->
  'v value ->
  ('r -> 'v) ->
  ('r -> 'v -> 'r) ->
  'r field

(** A bare [key] clause that sets a boolean; prints when it is set. *)
val flag : string -> ('r -> bool) -> ('r -> bool -> 'r) -> 'r field

(** Apply [clauses] to [init] in order.  Rejects an unknown key, a
    key given twice, a flag given a value, a field given none, and
    any value its reader refuses. *)
val decode : 'r field list -> 'r -> string list -> ('r, error) result

(** The clauses [r] shows, in table order. *)
val encode : 'r field list -> 'r -> string list

(** {1 Text} *)

(** Split on [sep], trim each piece and drop the empty ones. *)
val split : char -> string -> string list

(** The shortest of [%.12g] … [%.17g] that reads back as exactly [f],
    so distinct floats always print distinctly and every value that
    [%.12g] already round-tripped prints as it did. *)
val float : float -> string

(** The non-blank lines of a file body with their 1-based numbers,
    [#] comments cut and whitespace trimmed. *)
val lines : string -> (int * string) list

(** [f] over {!lines}; the first rejection names its line. *)
val map_lines :
  (string -> ('a, error) result) -> string -> ('a list, error) result

(** A whole file; an unreadable one is an [error] on axis ["file"]. *)
val read_file : string -> (string, error) result
