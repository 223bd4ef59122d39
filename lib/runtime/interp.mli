(** Bytecode interpreter — the reference execution oracle.

    {!Codegen} is the production engine (closure-threaded code, inline
    caches); this interpreter stays deliberately simple and is the
    semantic oracle the threaded engine is differentially tested
    against: both must produce identical cycle counts, checksums, hook
    event sequences and profiles on every workload.

    Executes a program over a {!Machine.t}, accumulating virtual cycles
    (per-block base cost, yieldpoint polls, layout [edge_extra]) and
    invoking the caller's hooks.  The interpreter itself is policy-free:
    all profiling, sampling and instrumentation-cost accounting live in
    hook implementations supplied by the profiling and VM layers.

    Hook order on a control transfer [src -> dst]: charge [edge_extra],
    call [on_edge]; then on entering [dst]: charge block cost, and if
    [dst] is a yieldpoint, charge the poll, update the timer flag, and
    call [on_yieldpoint].  [on_entry] runs with the fresh frame
    before the method's compiled form is even fetched — a lazy-compiler
    hook may install or replace the body and this invocation executes the
    fresh code; [on_exit] runs after the exit block's [Ret], while the
    frame is still live. *)

(** Per-invocation frame view exposed to hooks: the method index and the
    calling method's index (-1 for the root invocation).  Path registers
    belong to the instrumentation layers, not the frame. *)
type frame = { fmeth : int; fparent : int }

type hooks = {
  on_entry : (Machine.t -> frame -> unit) option;
  on_exit : (Machine.t -> frame -> unit) option;
  on_edge : (Machine.t -> frame -> src:int -> idx:int -> dst:int -> unit) option;
      (** [idx] is the successor index: 0 for jump/taken, 1 for not-taken *)
  on_yieldpoint : (Machine.t -> frame -> Cfg.block_id -> unit) option;
}

val no_hooks : hooks

(** [compose a b] runs [a]'s callback before [b]'s at every hook point. *)
val compose : hooks -> hooks -> hooks

exception Runtime_error of string

(** Call-stack depth at which {!Runtime_error} is raised; shared with
    every alternative execution engine over the same machine. *)
val max_depth : int

(** [call hooks machine name args] invokes method [name].
    @raise Runtime_error on call-stack overflow (depth > 100_000). *)
val call : hooks -> Machine.t -> string -> int array -> int

(** Run the program's main method. *)
val run : hooks -> Machine.t -> int
