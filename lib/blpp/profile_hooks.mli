(** Interpreter hooks that execute instrumentation plans.

    The hook layer applies a per-method {!Instrument.t} against the live
    machine: it maintains the frame's path register, charges the cost
    model for every executed instrumentation operation, and calls the
    caller's [on_path_end] at every path-end point with the completed
    path number.  Both the perfect profilers ({!Profiler}) and PEP's
    sampler build on this. *)

type plans = Instrument.t option array

(** Why a method did or did not get an instrumentation plan.  The failure
    reasons are surfaced (rather than collapsed into [None]) so the VM
    driver can report unprofilable methods as diagnostics instead of
    silently dropping them. *)
type plan_outcome =
  | Planned of Instrument.t
  | Uninterruptible  (** no yieldpoints anywhere in the method *)
  | Too_many_paths of { n_paths : int; limit : int }
      (** path count exceeds the numbering limit *)
  | Truncation_unsupported of string
      (** {!Dag.build} cannot truncate the graph in this mode *)

(** Build the plan of one method: truncate in [mode] (sample points
    follow the machine's yieldpoint placement, so loop headers whose
    yieldpoint was suppressed — inlined uninterruptible loops — are cut
    silently, paper §4.3), number with [number], place instrumentation. *)
val plan_outcome :
  mode:Dag.mode ->
  number:(int -> Dag.t -> Numbering.t) ->
  Machine.t ->
  int ->
  plan_outcome

(** [plan_outcome] collapsed to an option: [None] for uninterruptible
    methods, methods whose path count exceeds the numbering limit, and
    graphs the truncation cannot handle. *)
val plan_for :
  mode:Dag.mode ->
  number:(int -> Dag.t -> Numbering.t) ->
  Machine.t ->
  int ->
  Instrument.t option

val make_plans :
  mode:Dag.mode -> number:(int -> Dag.t -> Numbering.t) -> Machine.t -> plans

(** One path-profiling instrumentation layer, as data: the per-method
    plans (a plan installed or replaced while a frame of the method is
    live takes effect at its next event; an engine running the layer
    must be told, see [Codegen.install_plan]), the cost charged at
    every path-count/path-end point, the handler that receives each
    completed path number, and whether that handler is armed.

    [count_cost] is [`Hash] for the paper's perfect profiler (inserted
    hash call), [`Array] for classic BLPP's array-indexed counter,
    [`None] for PEP, which charges sampling costs itself in
    [on_path_end].

    [armed] is the layer's yieldpoint flag: while [!armed] is false and
    the machine's [tick_pending] is unset, [on_path_end] must do
    nothing at all (charge nothing, change nothing), so an engine may
    skip the call.  PEP keeps it set while a sampling burst is active;
    a handler that records every path end keeps it set always.
    {!path_hooks} ignores it and calls the handler at every path end. *)
type path_layer = {
  plans : plans;
  count_cost : [ `Hash | `Array | `None ];
  on_path_end : Machine.t -> Interp.frame -> path_id:int -> unit;
  armed : bool ref;
}

(** Cycles charged at one path-count/path-end point. *)
val count_cycles : Cost_model.t -> [ `Hash | `Array | `None ] -> int

(** The layer [{ plans; count_cost; on_path_end }] as interpreter hooks,
    with a fresh path-register file of its own.  [Codegen] executes the
    same layer as flat data; these closures are its oracle. *)
val path_hooks :
  plans:plans ->
  count_cost:[ `Hash | `Array | `None ] ->
  on_path_end:(Machine.t -> Interp.frame -> path_id:int -> unit) ->
  unit ->
  Interp.hooks

(** Per block of [cfg]: the branch id of its conditional terminator, or
    -1 for blocks ending in a jump or return.  The one map from control
    transfers to edge-profile counters, shared by {!edge_count_hooks}
    and the engine's baked edge counter. *)
val branch_ids : Cfg.t -> Cfg.branch_id array

(** Hooks of baseline-style edge instrumentation: bump the taken or
    not-taken counter of every executed conditional branch, charging
    [edge_count] cycles each ([charge] false turns the cost off, e.g.
    when modelling hardware-collected profiles).  With [active], only
    methods whose flag is set count (read at every edge), as the
    baseline compiler's one-time profile stops at recompilation. *)
val edge_count_hooks :
  ?charge:bool ->
  ?active:bool array ->
  Machine.t ->
  table:Edge_profile.table ->
  Interp.hooks
