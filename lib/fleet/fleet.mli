(** Fleet identity records.

    The one snapshot-identity API shared by the collector, the segment
    store's keys and the query layer's filters: a snapshot belongs to
    exactly one ({!Cohort}, {!Instance_id}, {!Window}) triple.
    Canonical strings exist only at the store boundary (the [key]
    functions); the only deliberately-stringly identity is
    [Cohort.config_key], inherited from {!Exp_harness.config_key}. *)

module Drift : sig
  (** What the collector does to an instance's phase global over time;
      workload code only reads it, so [No_drift] cohorts stay in phase
      0 — the control group of every diff. *)
  type t = No_drift | Phase_shift of { at_window : int; phase : int }

  (** The phase value in effect while collecting [window]. *)
  val phase : t -> window:int -> int

  (** ["steady"] or ["shift@W=P"]. *)
  val key : t -> string

  (** A cohort spec [NAME=DRIFT], [DRIFT] being {!key}'s output (or
      empty, for steady): [of_key (name ^ "=" ^ key d) = Ok (name, d)]
      for every non-empty [name] without ['=']. *)
  val of_key : string -> (string * t, Spec.error) result
end

module Cohort : sig
  (** Workload × configuration × drift plan: the unit fleet diffs
      compare (and the unit instances are replicated under). *)
  type t = {
    name : string;
    workload : string;  (** workload name *)
    size : int;
    seed : int;
    config_key : string;  (** an {!Exp_harness.config_key} *)
    drift : Drift.t;
  }

  val key : t -> string
  val equal : t -> t -> bool
end

module Instance_id : sig
  type t = { cohort : Cohort.t; ordinal : int }

  (** Deterministic per-instance PRNG seed: same cohort seed, distinct
      request stream per ordinal. *)
  val seed : t -> int

  val key : t -> string
end

module Window : sig
  (** Inclusive collection-interval index range plus its bounds in
      virtual cycles.  Raw snapshots cover one interval ([lo = hi]);
      merged segments and query aggregates span several. *)
  type t = { lo : int; hi : int; start_cycle : int; end_cycle : int }

  val raw : index:int -> start_cycle:int -> end_cycle:int -> t
  val span : t -> t -> t
  val contains : t -> int -> bool
  val key : t -> string
end
