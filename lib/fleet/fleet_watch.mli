(** Standing alert watch over the fleet's segment store.

    {!Fleet_query.diff} answers "what changed between these two window
    ranges" once; the watch asks it continuously.  For each cohort the
    first [baseline_windows] windows form a fixed baseline aggregate;
    every later window is diffed against it and the resulting findings
    are screened by a persisted rule set, written one rule per line in
    the {!Spec} clause grammar ({!parse_rule}).  Three mechanisms keep
    the alert stream operable:

    - {e hysteresis}: a finding must recur for [persist] consecutive
      windows before its rule fires;
    - {e dedup}: once fired, a finding never fires again while it
      persists — alerts carry state {e changes}, not state;
    - {e degraded-data annotation}: alerts whose evidence window (or
      baseline) was rebuilt from quarantine or lost outright are
      flagged, so weaker evidence is visible.

    {!run} is a pure function of (segments, rules, degraded log) and
    returns alerts in a deterministic order. *)

type family = New_hot_path | Edge_shift | Caller_change

val family_of_finding : Fleet_query.finding -> family

type rule = {
  name : string;
  cohort : string option;  (** [None] = every cohort *)
  families : family list;  (** [[]] = every finding family *)
  persist : int;  (** consecutive windows required before firing, >= 1 *)
  min_share : float option;  (** extra floor on new-hot-path share *)
  min_shift : float option;  (** extra floor on |edge bias delta| *)
}

(** One catch-all rule named ["drift"] (all cohorts, all families). *)
val default_rules : ?persist:int -> unit -> rule list

(** Render a rule in the line grammar {!parse_rule} accepts:
    [parse_rule (rule_to_line r) = Ok r]. *)
val rule_to_line : rule -> string

(** Parse one rule line: [NAME], then space-separated {!Spec} clauses
    [\[cohort=C\] \[family=F1,F2\] \[persist=N\] \[min-share=X\]
    \[min-shift=X\]], each at most once.  Families are
    [new-hot-path], [edge-shift], [caller-change]; shares and shifts
    are fractions in [\[0, 1\]]. *)
val parse_rule : string -> (rule, Spec.error) result

(** Parse a rules file body: one rule per line, [#] comments and blank
    lines ignored; an error names its line. *)
val parse_rules : string -> (rule list, Spec.error) result

val load_rules : string -> (rule list, Spec.error) result

(** Does [finding] (seen in [cohort]) pass [rule]'s cohort, family and
    magnitude filters? *)
val rule_matches : rule -> cohort:string -> Fleet_query.finding -> bool

type alert = {
  rule : string;
  cohort : string;
  window : int;  (** window index at which the rule fired *)
  streak : int;  (** consecutive windows the finding had held *)
  degraded : bool;  (** evidence or baseline window was degraded *)
  finding : Fleet_query.finding;
}

type report = {
  alerts : alert list;  (** sorted by (window, cohort, rule, finding) *)
  considered : int;  (** rule-matched finding instances examined *)
  deduped : int;  (** suppressed because the finding already fired *)
  flapped : int;  (** streaks that broke before reaching [persist] *)
  windows_evaluated : int;
  cohorts : string list;
}

(** [ALERT rule=.. cohort=.. win=.. streak=..\[ degraded-data\]
    <finding>]. *)
val render_alert : alert -> string

val pp_report : Format.formatter -> report -> unit

(** Evaluate [rules] over [segments].  [degraded] is
    {!Fleet_store.load_degraded} output; [thresholds] feeds
    {!Fleet_query.diff}; [baseline_windows] (default 1) widens the
    per-cohort baseline aggregate. *)
val run :
  ?thresholds:Fleet_query.thresholds ->
  ?baseline_windows:int ->
  rules:rule list ->
  degraded:(string * int * string) list ->
  Fleet_store.segment list ->
  report
