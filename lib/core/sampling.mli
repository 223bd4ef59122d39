(** Sampling strategies (paper §4.4, Figure 5).

    [PEP(SAMPLES, STRIDE)] is simplified Arnold-Grove sampling: after a
    timer tick the sampler strides over 0..STRIDE-1 sample opportunities
    (the skip amount rotates across ticks to defeat timer bias), then
    takes SAMPLES consecutive samples.  [PEP(1,1)] degenerates to plain
    timer-based sampling.  Full Arnold-Grove — striding between {e every}
    sample — is provided as the ablation the paper argues against.

    A sample opportunity is a path-end yieldpoint.  The burst is driven
    by internal state, so it keeps running after the tick driver rearms
    the timer, matching Arnold-Grove's set-rather-than-reset flag. *)

type config = {
  samples : int;  (** samples taken per timer tick *)
  stride : int;  (** maximum stride (1 = never skip) *)
  full_ag : bool;  (** stride between every sample, not just the first *)
}

(** [PEP(samples, stride)] with simplified striding. *)
val pep : samples:int -> stride:int -> config

(** Plain timer-based sampling, [PEP(1,1)]. *)
val timer_based : config

(** Never sample: measures PEP's always-on instrumentation alone. *)
val never : config

(** Full Arnold-Grove: [AG(samples, stride)]. *)
val arnold_grove : samples:int -> stride:int -> config

(** ["PEP(64,17)"], ["AG(64,17)"], ["instr-only"]. *)
val name : config -> string

(** [PEP(64,17)], the paper's configuration and the CLI default. *)
val default : config

(** Parse a sampling spec, case-insensitively: {!name}'s output
    ([PEP(S,T)], [AG(S,T)], [instr-only]), the colon forms [pep:S:T]
    and [ag:S:T], [timer] and [none].  [parse (name c) = Ok c] for
    every config.  The counts are {!Spec.int}s >= 1. *)
val parse : string -> (config, Spec.error) result

type t

val create : config -> t

(** Begin a burst (a timer tick was observed).  If a burst is already
    running, the request is remembered and a fresh burst starts when the
    current one drains. *)
val activate : t -> unit

(** Is the sampler currently consuming sample opportunities? *)
val active : t -> bool

(** Consume one sample opportunity.  [`Skip] while striding, [`Take]
    when the opportunity is sampled.  Calling when inactive is a bug. *)
val step : t -> [ `Skip | `Take ]

(** Opportunities sampled / skipped / bursts started so far. *)
val stats : t -> int * int * int
