(** PEP — continuous hybrid path and edge profiling (the paper's
    contribution).

    PEP runs the cheap half of Ball-Larus instrumentation all the time:
    the path register is maintained on every executed edge and reset at
    every path start, but nothing is ever stored.  At a path-end
    yieldpoint (loop header or method exit) the yieldpoint handler
    receives the completed path number; when a sampling burst is active
    ({!Sampling}), the handler increments the path's frequency, expands
    the path to its CFG edges (memoized after the first sample, paper
    §4.3), and bumps the taken/not-taken counter of every branch on the
    path — yielding both a path profile and an edge profile.

    Instrumentation placement is profile-guided (paper §3.4): with
    {!smart_number} the smart path numbering assigns 0 to each block's
    hottest outgoing edge, so hot arms carry no [r += v] at all. *)

type t = {
  hooks : Interp.hooks;
      (** compose after a {!Tick} driver, which supplies the tick token *)
  layer : Profile_hooks.path_layer;
      (** the same instrumentation as data ([hooks] is its closure
          form): the VM driver hands it to the threaded engine, which
          executes the plans' register steps inline and calls
          [on_path_end] only at path ends where a tick is pending or a
          sampling burst is active (the layer's [armed] flag) *)
  paths : Path_profile.table;
  edges : Edge_profile.table;
  plans : Profile_hooks.plans;
  sampler : Sampling.t;
}

(** [create ?eager ?number ~sampling machine].  [number] picks the
    per-method path numbering (default Ball-Larus); use {!smart_number}
    to enable profile-guided placement.  [eager:false] starts with no
    method instrumented — an adaptive VM installs plans into [plans] as
    it opt-compiles methods (clearing the method's slot in [paths] when
    it re-instruments, since path ids change with the numbering).

    With [telemetry], the profiler maintains the [pep.samples.taken] /
    [pep.samples.dropped] / [pep.samples.skipped] /
    [pep.path.promotions] / [pep.table_overflow] counters and the
    [pep.path.branches] histogram, and emits a ["sample"]-category
    trace instant per taken/dropped sample.  All recording is
    host-side: simulated cycle charges are identical with or without a
    sink.

    With [faults], the profiler degrades instead of growing without
    bound: the plan's [path-cap]/[edge-cap] bound the profile tables
    (drops counted in [pep.table_overflow] and the injector's
    [degrade.path_overflow]/[degrade.edge_overflow]), and a
    [sample-overrun] fault discards the sample after the handler's
    cycles are charged ([degrade.sample_dropped]) — the path register
    was already reset by the instrumentation steps, so the next path
    records normally.  An empty or [noop] plan changes nothing. *)
val create :
  ?telemetry:Telemetry.t ->
  ?faults:Fault_injector.t ->
  ?eager:bool ->
  ?number:(int -> Dag.t -> Numbering.t) ->
  sampling:Sampling.config ->
  Machine.t ->
  t

(** Smart path numbering driven by an existing edge profile: a DAG
    edge's frequency is its branch arm's counter (0 for jumps, dummies,
    and never-seen branches).  [zero] selects the ablation axis:
    [`Hottest] (default, PPP's choice) leaves hot arms uninstrumented;
    [`Coldest] deliberately instruments hot arms (paper §3.4 reports
    this costs about 1.4% extra). *)
val smart_number :
  ?zero:[ `Hottest | `Coldest ] ->
  Edge_profile.table ->
  int ->
  Dag.t ->
  Numbering.t

(** As {!smart_number}, for a single method's profile. *)
val smart_number_profile :
  ?zero:[ `Hottest | `Coldest ] -> Edge_profile.t -> Dag.t -> Numbering.t

(** Samples taken so far. *)
val n_samples : t -> int

(** Paths this configuration can profile / total methods (methods with
    too many paths or no yieldpoints are skipped). *)
val n_instrumented : t -> int * int
