(* Standing watch over the segment store.

   Triage ([Fleet_query.diff]) answers "what changed between these two
   window ranges" once; the watch runs that question continuously: a
   fixed early-window baseline per cohort, one evaluation per
   subsequent window, and a persisted rule set deciding which findings
   deserve an alert.  Three mechanisms keep the output operable:

   - hysteresis: a finding must hold for [persist] consecutive windows
     before its rule fires (one-window flaps are suppressed and
     counted);
   - dedup: a finding that already fired never fires again while it
     persists — the alert stream carries state changes, not state;
   - degraded-data annotation: an alert whose current or baseline
     window was rebuilt from quarantine or lost data is marked, so an
     operator knows the evidence is weaker than usual.

   Everything is a pure function of (segments, rules, degraded log);
   alerts come back sorted, so watch output is as deterministic as the
   store it reads. *)

type family = New_hot_path | Edge_shift | Caller_change

let families =
  [
    ("new-hot-path", New_hot_path);
    ("edge-shift", Edge_shift);
    ("caller-change", Caller_change);
  ]

let family_of_finding = function
  | Fleet_query.New_hot_path _ -> New_hot_path
  | Fleet_query.Edge_shift _ -> Edge_shift
  | Fleet_query.Caller_change _ -> Caller_change

type rule = {
  name : string;
  cohort : string option;
  families : family list;
  persist : int;
  min_share : float option;
  min_shift : float option;
}

let unnamed =
  {
    name = "";
    cohort = None;
    families = [];
    persist = 1;
    min_share = None;
    min_shift = None;
  }

let default_rules ?(persist = 1) () =
  [ { unnamed with name = "drift"; persist = max 1 persist } ]

(* Everything after a rule's name, in the {!Spec} grammar; a clause
   shows when it differs from [unnamed]. *)
let clauses =
  let open Spec in
  let clause key v get set =
    field ~shown:(fun r -> get r <> get unnamed) key v get set
  in
  [
    clause "cohort" (some name) (fun r -> r.cohort) (fun r cohort -> { r with cohort });
    clause "family"
      (list (enum families))
      (fun r -> r.families)
      (fun r families -> { r with families });
    clause "persist" (int ~lo:1 ())
      (fun r -> r.persist)
      (fun r persist -> { r with persist });
    clause "min-share" (some fraction)
      (fun r -> r.min_share)
      (fun r min_share -> { r with min_share });
    clause "min-shift" (some fraction)
      (fun r -> r.min_shift)
      (fun r min_shift -> { r with min_shift });
  ]

let rule_to_line r = String.concat " " (r.name :: Spec.encode clauses r)

let parse_rule line =
  match Spec.split ' ' line with
  | name :: opts when not (String.contains name '=') ->
      Spec.decode clauses { unnamed with name } opts
  | _ ->
      Error
        {
          Spec.axis = "rule";
          value = line;
          reason = "expected NAME followed by key=value clauses";
        }

let parse_rules = Spec.map_lines parse_rule
let load_rules file = Result.bind (Spec.read_file file) parse_rules

(* ----------------------------- matching ---------------------------- *)

let rule_matches r ~cohort finding =
  (match r.cohort with Some c -> String.equal c cohort | None -> true)
  && (match r.families with
     | [] -> true
     | fams -> List.mem (family_of_finding finding) fams)
  && (match (finding, r.min_share) with
     | Fleet_query.New_hot_path { share; _ }, Some m -> share >= m
     | _ -> true)
  &&
  match (finding, r.min_shift) with
  | Fleet_query.Edge_shift { from_bias; to_bias; _ }, Some m ->
      Float.abs (to_bias -. from_bias) >= m
  | _ -> true

(* ---------------------------- evaluation --------------------------- *)

type alert = {
  rule : string;
  cohort : string;
  window : int;
  streak : int;
  degraded : bool;
  finding : Fleet_query.finding;
}

type report = {
  alerts : alert list;
  considered : int;  (* matched finding-instances across all windows *)
  deduped : int;  (* suppressed: the finding had already fired *)
  flapped : int;  (* suppressed: streak broke before [persist] *)
  windows_evaluated : int;
  cohorts : string list;
}

let render_alert a =
  Fmt.str "ALERT rule=%s cohort=%s win=%d streak=%d%s %s" a.rule a.cohort
    a.window a.streak
    (if a.degraded then " degraded-data" else "")
    (Fleet_query.render_finding a.finding)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a[fleet-watch] cohorts=%d windows=%d considered=%d \
              alerts=%d deduped=%d flapped=%d@]"
    (fun ppf alerts ->
      List.iter (fun a -> Fmt.pf ppf "%s@," (render_alert a)) alerts)
    r.alerts (List.length r.cohorts) r.windows_evaluated r.considered
    (List.length r.alerts) r.deduped r.flapped

(* Per-(rule, cohort, finding) streak state.  A finding's identity is
   its rendering — the same string triage and goldens use. *)
type streak_state = {
  mutable streak : int;
  mutable last_window : int;
  mutable fired : bool;
}

let run ?thresholds ?(baseline_windows = 1) ~rules ~degraded segments =
  let cohorts =
    List.sort_uniq compare
      (List.map
         (fun (s : Fleet_store.segment) ->
           s.Fleet_store.cohort.Fleet.Cohort.name)
         segments)
  in
  let degraded_set = Hashtbl.create 16 in
  List.iter
    (fun (cohort, window, _reason) ->
      Hashtbl.replace degraded_set (cohort, window) ())
    degraded;
  let is_degraded ~cohort ~lo ~baseline_hi w =
    Hashtbl.mem degraded_set (cohort, w)
    || List.exists
         (fun b -> Hashtbl.mem degraded_set (cohort, b))
         (List.init (max 0 (baseline_hi - lo + 1)) (fun i -> lo + i))
  in
  let states : (string * string * string, streak_state) Hashtbl.t =
    Hashtbl.create 64
  in
  let alerts = ref [] in
  let considered = ref 0 and deduped = ref 0 and flapped = ref 0 in
  let windows_evaluated = ref 0 in
  List.iter
    (fun cohort ->
      let mine =
        List.filter
          (fun (s : Fleet_store.segment) ->
            String.equal s.Fleet_store.cohort.Fleet.Cohort.name cohort)
          segments
      in
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (s : Fleet_store.segment) ->
            ( min lo s.Fleet_store.window.Fleet.Window.lo,
              max hi s.Fleet_store.window.Fleet.Window.hi ))
          (max_int, min_int) mine
      in
      let baseline_hi = lo + max 1 baseline_windows - 1 in
      if baseline_hi < hi then begin
        let baseline =
          Fleet_query.view
            (Fleet_query.select mine
               { Fleet_query.cohort = Some cohort;
                 lo = Some lo;
                 hi = Some baseline_hi })
        in
        for w = baseline_hi + 1 to hi do
          incr windows_evaluated;
          let current =
            Fleet_query.view
              (Fleet_query.select mine
                 { Fleet_query.cohort = Some cohort;
                   lo = Some w;
                   hi = Some w })
          in
          let findings =
            if current.Fleet_query.segments = 0 then []
            else Fleet_query.diff ?thresholds ~baseline ~current ()
          in
          List.iter
            (fun rule ->
              let matched =
                List.filter (rule_matches rule ~cohort) findings
              in
              considered := !considered + List.length matched;
              List.iter
                (fun f ->
                  let key =
                    (rule.name, cohort, Fleet_query.render_finding f)
                  in
                  let st =
                    match Hashtbl.find_opt states key with
                    | Some st -> st
                    | None ->
                        let st =
                          { streak = 0; last_window = min_int; fired = false }
                        in
                        Hashtbl.replace states key st;
                        st
                  in
                  st.streak <-
                    (if st.last_window = w - 1 then st.streak + 1 else 1);
                  st.last_window <- w;
                  if st.fired then incr deduped
                  else if st.streak >= rule.persist then begin
                    st.fired <- true;
                    alerts :=
                      {
                        rule = rule.name;
                        cohort;
                        window = w;
                        streak = st.streak;
                        degraded = is_degraded ~cohort ~lo ~baseline_hi w;
                        finding = f;
                      }
                      :: !alerts
                  end)
                matched)
            rules;
          (* streaks that broke this window without ever firing are
             flaps; they may restart later, from 1 *)
          Hashtbl.iter
            (fun (_, c, _) st ->
              if
                String.equal c cohort && st.last_window = w - 1
                && (not st.fired) && st.streak > 0
              then begin
                incr flapped;
                st.streak <- 0
              end)
            states
        done
      end)
    cohorts;
  {
    alerts =
      List.sort
        (fun a b ->
          compare
            (a.window, a.cohort, a.rule, Fleet_query.render_finding a.finding)
            (b.window, b.cohort, b.rule, Fleet_query.render_finding b.finding))
        !alerts;
    considered = !considered;
    deduped = !deduped;
    flapped = !flapped;
    windows_evaluated = !windows_evaluated;
    cohorts;
  }
