(** Flat-code execution engine (engine v2).

    The production counterpart of the {!Interp} oracle.  Each compiled
    form ({!Machine.cmeth}) is translated once into flat, preallocated
    arrays — an int-coded opcode array plus parallel operand arrays —
    and executed by one tight tail-recursive loop over a program
    counter.  No per-instruction closures exist and recompiles rebuild
    nothing but the arrays; profiling instrumentation is compiled into
    the same arrays ({!set_instr}).  Two profile-guided tiers sit on
    top:

    {b Superinstructions.}  Hot adjacent instruction pairs/triples are
    fused into single dispatched opcodes.  Hot blocks come from the
    VM's own PEP edge profile (the driver feeds per-method hot masks in
    via {!set_hot_blocks}); the fusion table for each translation is a
    deterministic {!Fusion.witness} emitted per method generation,
    restricted to blocks {!Effects} marks fusable, and auditable with
    [Pep_check.validate_fusion].  Virtual cycles are charged per block,
    so fusion is observationally neutral by construction.

    {b Polymorphic inline caches.}  Every call site carries an inline
    cache keyed on the callee compiled form's generation stamp
    ({!Machine.cmeth.gen}) that climbs a mono → poly(4-way) →
    megamorphic tier ladder: four misses at a tier promote the site
    one tier, and 64 consecutive megamorphic hits on one generation
    demote it back to monomorphic.
    Steady-state calls never consult the method table and allocate
    nothing in bare (hook-free) execution.

    Semantics are bit-identical to the oracle: same virtual cycle
    counts, same yieldpoint firings, same hook event order, same
    results.  Hooks are consulted dynamically (absent hooks cost one
    predictable test); baked plans are kept coherent by invalidation
    when a plan is installed ({!install_plan}).  Block
    costs and layout penalties are read through the captured compiled
    form at execution time, so in-place mutation by
    {!Machine.set_speed}, [Layout.apply] and {!Machine.clear_edge_extra}
    affects even frames currently executing, exactly as in the oracle. *)

type t

(** Short engine label for bench and result names: ["v2-flat"], or
    ["v2-flat-nofuse"] for an engine without superinstructions. *)
val tier_name : fuse:bool -> string

(** [create ?telemetry ?fuse machine] builds an engine over [machine].
    Nothing is translated until first dispatch; methods are translated
    lazily, at most once per generation stamp.  [fuse] (default [true])
    compiles superinstructions for the blocks {!set_hot_blocks} marks
    hot; [false] is the fusion ablation.

    With [telemetry], the engine registers and maintains the
    [engine.translations], [engine.ic.hits] / [engine.ic.misses],
    [engine.fuse.blocks] / [engine.fuse.sites] and
    [engine.pic.promote_poly] / [engine.pic.promote_mega] /
    [engine.pic.demote] counters (host-side only: no simulated cycles,
    no allocation on the hot path).  Without it no counters exist and
    execution is identical to a pre-telemetry engine. *)
val create : ?telemetry:Telemetry.t -> ?fuse:bool -> Machine.t -> t

(** {2 Instrumentation}

    Profiling instrumentation reaches the engine as data, not closures.
    The edge counter and a path layer's register steps are compiled
    into each translation next to the per-slot costs; the engine calls
    out only at a path end (the layer's [on_path_end]), at a timer tick
    (the [tick] handler), and to any closure hooks left in [pre] and
    [post]. *)

(** A baseline edge counter: while [active.(m)] is set (read at every
    transfer), each conditional transfer of method [m] bumps its
    branch's counter in [table.(m)] and charges [edge_count]. *)
type edge_counter = { table : Edge_profile.table; active : bool array }

(** Everything a hooked engine runs at each event, in this order: the
    [tick] handler (at a yieldpoint whose poll finds the timer flag
    set), the [pre] hooks, the edge counter, the path layer, the [post]
    hooks.  With [Some h] for [tick], a configuration is equivalent to
    the oracle running
    [Tick.hooks] of [h], then [pre], {!Profile_hooks.edge_count_hooks}
    with [~active], {!Profile_hooks.path_hooks}, and [post],
    composed in that order with {!Interp.compose}. *)
type instr = {
  tick : (Machine.t -> Interp.frame -> unit) option;
  pre : Interp.hooks;
  edges : edge_counter option;
  paths : Profile_hooks.path_layer option;
  post : Interp.hooks;
}

(** No tick, no hooks, no instrumentation: bare execution. *)
val no_instr : instr

(** Install an instrumentation configuration.  Counters, hooks and the
    tick handler are read at every event; a path layer's plans are
    baked into each translation.  A path layer whose plans differ
    (physically) from the current one's — including adding or removing
    the layer — drops every cached translation and starts a fresh
    path-register file; the same plans keep both.

    The layer's handler runs only when its [armed] flag is set or a
    tick is pending (see {!Profile_hooks.path_layer}); the oracle's
    {!Profile_hooks.path_hooks} calls it at every path end, and the two
    agree because an unarmed handler does nothing.

    @raise Invalid_argument when called while the engine is executing
    (the machine's call depth is not 0), e.g. from a hook: live frames
    do not re-read the configuration. *)
val set_instr : t -> instr -> unit

(** [install_plan engine plans midx plan] sets [plans.(midx) <- plan].
    When [plans] are the installed path layer's, every translation of
    [midx] that can still run — the cached body, inline-cache entries,
    and the bodies of live frames — is marked stale in place: it stops
    using its baked steps and reads the installed plan at every event,
    against its own block ids (a plan replaced while a frame of the
    method is live — adaptive re-instrumentation — applies to the old
    body at its next event, as in the oracle).  The next translation of
    the method bakes the new plan.  Every write to an installed layer's
    plans must go through here; may be called from a hook. *)
val install_plan : t -> Profile_hooks.plans -> int -> Instrument.t option -> unit

(** What the engine compiles for method [midx]'s instrumentation right
    now (current body, installed plan, current layer): pure
    translation, no cache side effects.  Feed this to
    [Pep_check.validate_instr]. *)
val instr_witness : t -> int -> Instrument.witness

(** [set_hot_blocks engine midx hot] installs the per-block hot mask
    the fusion planner uses for method [midx] (typically block
    frequencies derived from the VM's own PEP edge profile).  Drops the
    method's cached translation so the next dispatch re-plans fusion; a
    mask whose length does not match the current body is ignored by the
    planner (all-cold). *)
val set_hot_blocks : t -> int -> bool array -> unit

(** The fusion table the engine would compile for method [midx] right
    now (current generation stamp, current hot mask): pure planning, no
    translation side effects.  Feed this to [Pep_check.validate_fusion]. *)
val fusion_witness : t -> int -> Fusion.witness

(** Fusion entries actually compiled into the method's cached
    translation; [[]] if the method is not currently translated. *)
val fused_entries : t -> int -> Fusion.entry list

(** PIC tier of every call site in the method's cached translation, in
    bytecode order: ["mono"], ["poly"] or ["mega"].  [[]] if the method
    is not currently translated. *)
val ic_tiers : t -> string -> string list

(** [call engine name args] invokes method [name], like {!Interp.call}.
    @raise Interp.Runtime_error on call-stack overflow. *)
val call : t -> string -> int array -> int

(** Run the program's main method. *)
val run : t -> int
