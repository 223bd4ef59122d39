(** Forward constant / interval analysis over a method body.

    The abstract state is one integer interval per local and per operand
    stack slot; the analysis is a {!Dataflow} forward problem with
    widening at loop headers, so it terminates on every CFG.  Soundness:
    every value the interpreter can produce at a program point lies in
    the computed interval (the fuzz suite cross-checks this by folding
    provably-constant loads and comparing {!Interp} results).

    Two consumers matter beyond linting: {!justify} independently
    re-derives the operand-stack discipline that lets
    [lib/engine/codegen.ml] use unchecked array accesses for the stack
    and locals, and {!check_fold} validates claimed constant folds
    (rejecting any whose constant the analysis cannot confirm). *)

type itv = { lo : int; hi : int }
(** Closed interval; [min_int] / [max_int] act as the infinities. *)

val top : itv
val const : int -> itv
val pp_itv : itv Fmt.t

(** [mem v itv] — membership, the soundness predicate. *)
val mem : int -> itv -> bool

type state = {
  stack : itv list;  (** top of stack first *)
  locals : itv array;
}

type analysis = {
  entry : state option array;
      (** abstract state at each block's entry; [None] = unreachable *)
  exits : state option array;
  max_depth : int;
      (** maximum abstract operand-stack depth at any point of any
          reachable block, mid-instruction pushes included *)
}

(** Requires a body that passed {!Pep_check.verify_method}: join demands
    agreeing stack depths and the transfer demands no underflow.
    @raise Failure (or [Cfg.Malformed]) on unverified bodies. *)
val analyze : Method.t -> analysis

type finding =
  | Const_branch of { block : int; always_taken : bool }
      (** the branch condition is provably zero / non-zero *)
  | Heap_wrap of { block : int; index : int; itv : itv }
      (** an [AGet]/[ASet] index may fall outside [[0, heap_size)] and
          rely on the runtime's modulo wrap *)
  | Div_by_zero of { block : int; index : int }
      (** a [Div]/[Rem] divisor may be zero (defined as 0) *)

val findings : heap_size:int -> Method.t -> analysis -> finding list

type violation = { block : int; index : int; reason : string }

(** Independent justification of the unchecked array operations codegen
    emits: at every reachable instruction the abstract stack depth
    covers the pops, never exceeds [max_stack] after the pushes, and
    every local / global index is within [the method's nlocals] /
    [n_globals].  An empty list is a proof (relative to the analysis)
    that the unchecked accesses stay in bounds. *)
val justify :
  n_globals:int -> max_stack:int -> Method.t -> analysis -> violation list

(** Provably-constant loads: [(block, index, k)] means the [Load] at
    that position always pushes [k] and can be replaced by [Const k]. *)
val folds : Method.t -> analysis -> (int * int * int) list

(** Validate one claimed fold: the instruction must be a [Load] whose
    interval at that point is exactly [[k, k]]. *)
val check_fold :
  Method.t -> analysis -> block:int -> index:int -> const:int ->
  (unit, string) result

(** Interval of the method's return value, when the exit is reachable. *)
val result_interval : Method.t -> analysis -> itv option
