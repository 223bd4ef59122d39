(** Chaos sweep: every workload under curated fault plans, under both
    engines, with the graceful-degradation invariants checked on each
    run.

    A chaos run is an ordinary {!Exp_harness.replay} under a PEP
    configuration carrying a non-empty {!Fault_plan}.  For each
    (workload, plan, engine) the sweep asserts:

    - the run completes — degradations never escalate to crashes;
    - the application checksum equals the healthy run's (faults perturb
      profiling and compilation, never program semantics);
    - {!Fault_injector.accounted}: every injected fault is matched by a
      recorded [degrade.*] response;
    - the profile tables' own overflow counts agree with the injector's
      [degrade.path_overflow]/[degrade.edge_overflow];
    - plans that do not {!Fault_plan.perturbs_execution} ([noop],
      [corrupt]-only) leave every measurement bit-identical to the
      healthy run;
    - the run's lint diagnostics carry no errors;
    - accuracy loss against the healthy run's PEP edge profile
      (1 - {!Accuracy.absolute_overlap}) stays within the plan's
      declared bound;
    - both engines produce identical measurements and identical fault
      accounting (the decision streams are engine-independent). *)

type case = {
  label : string;
  plan : Fault_plan.t;
  max_loss : float;
      (** inclusive bound on [1 - absolute_overlap] vs the healthy
          run's PEP edge profile.  Destructive plans (e.g.
          [compile-fail=1], which keeps every method at baseline so PEP
          never instruments anything) legitimately reach 1.0; the bound
          documents the expected blast radius per plan rather than one
          global number. *)
}

(** The standing plans the chaos CI job sweeps: [noop], tight and roomy
    table bounds, flaky and dead optimizing compilers, an overrunning
    sample handler, fully corrupt inputs, and a kitchen-sink mix. *)
val curated : case list

type report = {
  workload : string;
  label : string;
  engine : Driver.engine;
  meas : Exp_harness.measurement;
  counts : Fault_injector.counts;
  loss : float;
  max_loss : float;
  violations : string list;  (** empty means every invariant held *)
}

(** Replay [case] on [env] and check the single-run invariants against
    [healthy] (the same env/engine replayed under the empty plan). *)
val run_case :
  engine:Driver.engine ->
  healthy:Exp_harness.run ->
  Exp_harness.env ->
  case ->
  report

(** The full sweep: every env x case x both engines (healthy baselines
    computed once per env), sharded across [jobs] worker domains with
    deterministic report order.  Cross-engine agreement violations are
    attached to the [`Threaded] report of the pair. *)
val sweep :
  ?jobs:int -> ?cases:case list -> Exp_harness.env list -> report list

val passed : report list -> bool

(** One line per report (two columns of fault/degrade accounting), plus
    one indented line per violation. *)
val pp_report : report Fmt.t
