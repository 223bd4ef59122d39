(* Fleet identity records.

   Every snapshot the continuous-profiling service handles is owned by
   exactly one (cohort, instance, window) triple, and the same records
   flow through the collector, the segment store's keys and the query
   layer's filters — canonical strings exist only at the store
   boundary, derived via the [key] functions below ([config_key] being
   the one deliberately-stringly identity, inherited from the
   experiment harness). *)

module Drift = struct
  (* What the collector does to an instance's phase global over time.
     The workload only reads the global, so [No_drift] cohorts stay in
     phase 0 forever — the control group of every diff. *)
  type t = No_drift | Phase_shift of { at_window : int; phase : int }

  let phase t ~window =
    match t with
    | No_drift -> 0
    | Phase_shift { at_window; phase } -> if window >= at_window then phase else 0

  let key = function
    | No_drift -> "steady"
    | Phase_shift { at_window; phase } -> Fmt.str "shift@%d=%d" at_window phase

  let of_key spec =
    let reject axis value reason = Error { Spec.axis; value; reason } in
    match String.index_opt spec '=' with
    | None | Some 0 -> reject "cohort" spec "expected NAME=steady or NAME=shift@W=P"
    | Some i -> (
        let name = String.sub spec 0 i in
        match String.sub spec (i + 1) (String.length spec - i - 1) with
        | "" | "steady" -> Ok (name, No_drift)
        | drift -> (
            match String.split_on_char '=' drift with
            | [ at; phase ] when String.starts_with ~prefix:"shift@" at -> (
                let at = String.sub at 6 (String.length at - 6) in
                match
                  ( Spec.read ~axis:"shift window" (Spec.int ~lo:0 ()) at,
                    Spec.read ~axis:"shift phase" (Spec.int ~lo:1 ()) phase )
                with
                | Ok at_window, Ok phase ->
                    Ok (name, Phase_shift { at_window; phase })
                | Error e, _ | _, Error e -> Error e)
            | _ -> reject "drift" drift "expected steady or shift@W=P"))
end

module Cohort = struct
  (* workload × configuration × fault/drift plan; [config_key] is an
     [Exp_harness.config_key] so fleet identities digest the same
     configuration space as the run cache *)
  type t = {
    name : string;
    workload : string;
    size : int;
    seed : int;
    config_key : string;
    drift : Drift.t;
  }

  let key c =
    Fmt.str "cohort=%s|workload=%s|size=%d|seed=%d|cfg=%s|drift=%s" c.name
      c.workload c.size c.seed c.config_key (Drift.key c.drift)

  let equal a b = key a = key b
end

module Instance_id = struct
  type t = { cohort : Cohort.t; ordinal : int }

  (* Distinct, deterministic PRNG seed per instance: same cohort seed,
     different request streams across the fleet. *)
  let seed t = t.cohort.Cohort.seed + ((t.ordinal + 1) * 7919)
  let key t = Fmt.str "%s|inst=%d" (Cohort.key t.cohort) t.ordinal
end

module Window = struct
  (* Inclusive index range plus its bounds in virtual cycles.  A raw
     snapshot covers one collection interval ([lo = hi]); merged
     segments and query aggregates span several. *)
  type t = { lo : int; hi : int; start_cycle : int; end_cycle : int }

  let raw ~index ~start_cycle ~end_cycle =
    { lo = index; hi = index; start_cycle; end_cycle }

  let span a b =
    {
      lo = min a.lo b.lo;
      hi = max a.hi b.hi;
      start_cycle = min a.start_cycle b.start_cycle;
      end_cycle = max a.end_cycle b.end_cycle;
    }

  let contains t index = t.lo <= index && index <= t.hi
  let key t = Fmt.str "win=%d-%d" t.lo t.hi
end
