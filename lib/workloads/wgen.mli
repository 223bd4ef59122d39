(** Seeded adversarial workload generator with a streaming traffic
    model (ROADMAP "scenario diversity").

    A {!spec} is a point in a space of tunable feature axes — branch
    bias, megamorphic call sites, recursion depth, loop nests,
    path-explosion diamond chains — composed under a traffic model of
    bursty arrivals from a multi-tenant request mix whose hot paths
    migrate across scheduled phases.  [workload spec] builds a
    {!Workload.t} whose program is a pure function of the spec: the
    same spec always yields byte-identical bytecode, and the request
    stream is drawn from the machine PRNG, so runs are deterministic
    per seed like every other workload.

    Phases reuse the fleet convention: the program {e reads}
    [Phased.phase_global] and never writes it, so a harness (fleet
    collector, {!Exp_drift}) advances phases externally between
    windows.  A spec with [phases = 1] is its own no-drift twin — the
    structure is identical, the shift arms just never execute.

    Specs have a canonical string form in the {!Spec} clause grammar
    ([print]/[parse] are exact inverses) used as the workload {e name},
    so generated workloads are first-class in every registry keyed by
    name: [Suite.resolve], the run cache, the fleet store and the CLI
    all accept a ["gen:…"] string wherever a workload name goes. *)

type spec = {
  seed : int;  (** structural PRNG seed (program shape, constants) *)
  methods : int;  (** worker methods the dispatcher routes across, 1-8 *)
  bias : int;  (** hot-arm probability of biased branches, percent, 50-99 *)
  mega : int;  (** megamorphic fan-out (distinct callees at one site), 0-8 *)
  depth : int;  (** recursion depth of the [deep] call chain, 0-16 *)
  loops : int;  (** loop-nest depth inside workers, 0-4 *)
  diamonds : int;
      (** length of the sequential if-diamond chain: [2^diamonds] paths,
          so 30 sits at the [Numbering.Too_many_paths] boundary and the
          maze method degrades to unprofilable (a warning, never an
          error), 0-30 *)
  phases : int;  (** traffic phases the program has arms for, 1-4 *)
  tenants : int;  (** tenant mix size (per-tenant dispatch skew), 1-8 *)
  burst : int;  (** requests per burst (one tenant per burst), 1-32 *)
  size : int;  (** default workload size (bursts per iteration) *)
}

val default : spec

(** Every axis within its documented range: the error a {!parse} of
    [print spec] would give. *)
val validate : spec -> (unit, Spec.error) result

(** Canonical spec string, e.g.
    ["gen:seed=7,methods=3,bias=85,mega=4,depth=3,loops=2,diamonds=8,phases=2,tenants=2,burst=4,size=60"].
    Every field is printed, in this fixed order. *)
val print : spec -> string

(** Parse a spec string: ["gen:"] and a {!Spec} clause list of
    [axis=int].  Omitted axes take their {!default}; unknown or
    duplicate keys, malformed integers and out-of-range axes are
    rejected.  [parse (print s) = Ok s] for every valid spec. *)
val parse : string -> (spec, Spec.error) result

(** Whether a workload name is in the generator's namespace (starts
    with ["gen:"]). *)
val is_spec : string -> bool

(** The workload for a valid spec; its [name] is [print spec] and its
    [default_size] is [spec.size].
    @raise Invalid_argument if the spec does not validate. *)
val workload : spec -> Workload.t

(** [parse] + [validate] + [workload]. *)
val resolve : string -> (Workload.t, Spec.error) result

(** The canonical traffic schedule: the phase in effect at each of
    [windows] collection windows — phases are spread evenly, so a
    2-phase spec over 4 windows shifts at window 2 (matching the fleet
    default drift cohort).  Always [phases - 1] by the last window. *)
val schedule : spec -> windows:int -> int list

(** The windows at which [schedule] changes phase (the shift
    boundaries an accuracy-over-time series must recover after). *)
val shifts : spec -> windows:int -> int list

(** A deterministic corpus of [n] valid specs spanning the axis space,
    for sweeps and differential tests. *)
val corpus : ?n:int -> seed:int -> unit -> spec list
