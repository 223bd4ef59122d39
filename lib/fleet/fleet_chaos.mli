(** Fleet-level chaos sweep: the collector under curated fleet fault
    plans, checked against a healthy run of the same spec.

    The oracle is byte-level recovery convergence.  For each case the
    sweep asserts:

    - the run completes (faults degrade, never crash the collector);
    - {!Fault_injector.accounted}: every injection has a matching
      recorded response;
    - a plan with fleet fault sites actually fired; a plan without
      ([noop]) recorded nothing and left the store byte-identical;
    - a converging plan's store fingerprint — sorted (file, md5) over
      [*.seg] — equals the healthy run's, with no "lost" records in
      the degraded log;
    - a data-losing plan ([doomed]) diverged and accounted every lost
      window in the degraded log;
    - one clean rerun over the faulted store converges it to the
      healthy bytes (a no-op warm rerun when it already converged, a
      full re-collection of lost windows otherwise). *)

(** A fleet-level plan ({!Fault_plan.perturbs_fleet} sites).
    [converges] declares whether the faulted store must heal to the
    healthy store's exact bytes: true for every recoverable plan, false
    only for plans designed to lose data (which must account every loss
    in the degraded log instead). *)
type case = { label : string; plan : Fault_plan.t; converges : bool }

(** [case label plan_spec converges], the plan parsed with
    {!Fault_plan.parse_exn}. *)
val case : string -> string -> bool -> case

(** The standing fleet plans: [noop], seeded crash/torn-write/
    straggler/segment-corruption plans, the data-losing [doomed]
    (certain crash, zero restarts) and a [fleet-sink] mix. *)
val curated : case list

type report = {
  flabel : string;
  converges : bool;  (** the case's declared expectation *)
  identical : bool;
      (** faulted store was byte-identical to healthy before the heal
          rerun *)
  counts : Fault_injector.counts option;
  healed_open : int;  (** torn files removed by the open recovery scan *)
  lost : int;  (** "lost" records in the degraded log *)
  rebuilt : int;  (** "rebuilt" records in the degraded log *)
  violations : string list;  (** empty means every invariant held *)
}

(** Sorted (basename, md5 hex) of every [*.seg] in [dir] — the identity
    the convergence invariants compare. *)
val fingerprint : string -> (string * string) list

(** Run the healthy baseline into [dir/healthy], then each case into
    [dir/<label>], returning one report per case in case order. *)
val sweep :
  ?jobs:int ->
  ?cases:case list ->
  dir:string ->
  Fleet_collector.spec ->
  report list

val passed : report list -> bool

(** One line per case (fault and degradation accounting, convergence
    verdict), plus one indented line per violation. *)
val pp_report : report Fmt.t
