(** Path profiles: per-method frequency tables keyed by Ball-Larus path
    number.

    Each entry memoizes, once known, the path's branch arms and its
    length in branches ([b_p] of the branch-flow metric, paper §6.3),
    and for ground-truth profilers its constituent CFG edges.  PEP's
    sampler fills the memo the first time a path is sampled and reuses
    it afterwards (paper §4.3). *)

type entry = {
  path_id : int;
  mutable count : int;
  mutable edges : Cfg.edge list option;
      (** memoized expansion ({!memoize}; PEP keeps only the arms) *)
  mutable n_branches : int;
      (** branch edges on the path; -1 until the expansion is memoized *)
  mutable arms : int array;
      (** the path's branch arms in path order, each packed
          [2 * branch + (1 if taken else 0)]; [[||]] until memoized *)
}

(** Per-method path profile. *)
type t

val create : unit -> t
val incr : t -> int -> unit
val add : t -> int -> int -> unit
val find : t -> int -> entry option

(** The branch arms of a path's edges, packed as in [entry.arms]. *)
val arms_of : Cfg.edge list -> int array

(** [memoize e edges] records [edges] as the expansion of [e]'s path,
    with its branch arms and branch count. *)
val memoize : entry -> Cfg.edge list -> unit

(** [memoize_arms e edges]: {!memoize} without keeping [edges]. *)
val memoize_arms : entry -> Cfg.edge list -> unit

(** Entry, created with count 0 if absent — ignoring any capacity bound
    (ground-truth profilers are never bounded).  Bounded writers use
    {!bounded_entry}.  A hit allocates nothing. *)
val entry : t -> int -> entry

(** The table is at capacity and has no entry for the path. *)
exception Full

(** Like {!entry}, but respects the table's {!capacity}.  A hit
    allocates nothing.
    @raise Full when the entry is absent and the table is full; the
    dropped update is counted in {!overflow}. *)
val bounded_entry : t -> int -> entry

(** {2 Bounded tables (degrade-don't-crash, paper §3.2)}

    A capacity bounds the {e distinct paths} stored, modelling the
    fixed-size profile tables of a production VM.  {!add}/{!incr}/
    {!parse_line} on a full table drop updates that would create a new
    entry (counted in {!overflow}); updates to present entries always
    land.  Default: unbounded. *)

val set_capacity : t -> int option -> unit
val capacity : t -> int option

(** Updates dropped because the table was full; {!clear} resets it. *)
val overflow : t -> int

val entries : t -> entry list

(** Total path executions recorded. *)
val total : t -> int

val n_distinct : t -> int
val is_empty : t -> bool
val clear : t -> unit
val iter : (entry -> unit) -> t -> unit

(** Per-program profile, one slot per method. *)
type table = t array

val create_table : n_methods:int -> table
val table_total : table -> int

(** Total dropped updates across the table. *)
val table_overflow : table -> int

(** One line per path: ["<method-index> <path-id> <count>"] (memoized
    expansions are not serialized; they are re-derivable from the
    P-DAG).  [of_lines] is the inverse.
    @raise Failure on malformed input. *)
val to_lines : table -> string list

val of_lines : n_methods:int -> string list -> table

(** Parse one serialized line into an existing table (blank lines are
    ignored).  The structured-error twin of {!of_lines}, for callers
    that need per-line diagnostics instead of exceptions. *)
val parse_line : table -> string -> (unit, string) result

val pp : t Fmt.t
