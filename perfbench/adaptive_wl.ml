(* The [adaptive] workload: fig11's method.  Every suite program runs
   [trials] trials of [Exp_harness.adaptive_total] under Base and under
   PEP-driven optimisation (4x timer rate, live recompiles, [From_pep],
   baseline code carrying the one-time edge counters).  It is the only
   workload where the adaptive recompilation and one-time-profile paths
   of the VM run. *)

let trials = 2

(* Mode 0 is Base, mode 1 PEP(64,17) driving the optimiser. *)
let configs = [| Exp_harness.default; { Exp_harness.default with profiling = Exp_harness.pep_default } |]
let keys = [| "base"; "pep" |]
let base = 0
let pep = 1

let name (e : Exp_harness.env) = e.Exp_harness.workload.Workload.name

(* One round: every program, every trial, both modes (order rotated by
   round, program and trial), each from a collected heap (see
   [Pb.collected]).  [each p mode trial dt words total]. *)
let round envs r each =
  Array.iteri
    (fun p env ->
      for trial = 0 to trials - 1 do
        for k = 0 to 1 do
          let mode = (k + r + p + trial) mod 2 in
          Pb.collected ();
          let words, (dt, total) =
            Pb.alloc_words (fun () ->
                Pb.time (fun () -> Exp_harness.adaptive_total ~config:configs.(mode) ~trial env))
          in
          each p mode trial dt words total
        done
      done)
    envs

(* Per (program, mode, trial): samples in round order. *)
let grid envs = Array.map (fun _ -> Array.init 2 (fun _ -> Array.make trials [])) envs
let push g p mode trial x = g.(p).(mode).(trial) <- g.(p).(mode).(trial) @ [ x ]

(* Times are per-trial minima over the run's rounds (see
   [Replay_wl.total]); a pass is the sum over programs and trials. *)
let per_program g mode p = Pb.sum (Array.to_list (Array.map Pb.minimum g.(p).(mode)))
let total g mode = Pb.sum (List.init (Array.length g) (per_program g mode))

let ratio_geomean g =
  Pb.geomean (List.init (Array.length g) (fun p -> per_program g pep p /. per_program g base p))

(* Totals every timed trial produced, checked after the timed region
   against the oracle engine's: (program, mode, trial, round, total). *)
let check_totals chk envs totals =
  let oracle_base = Array.make (Array.length envs) 0. in
  let want =
    Array.mapi
      (fun p env ->
        Array.init 2 (fun mode ->
            Array.init trials (fun trial ->
                let dt, total =
                  Pb.time (fun () ->
                      Exp_harness.adaptive_total
                        ~config:{ (configs.(mode)) with engine = `Oracle }
                        ~trial env)
                in
                if mode = base then oracle_base.(p) <- oracle_base.(p) +. dt;
                total)))
      envs
  in
  List.iter
    (fun (p, mode, trial, r, total) ->
      let op = Printf.sprintf "%s/%s/trial%d/round%d" (name envs.(p)) keys.(mode) trial r in
      Pb.expect chk ~op (total = want.(p).(mode).(trial))
        "adaptive total differs from the oracle engine's")
    totals;
  (want, oracle_base)

(* The timed rounds; also returns the peak heap at their end. *)
let timed chk envs ~seconds ~each =
  let times = grid envs and words = grid envs and totals = ref [] in
  let rounds =
    Pb.rounds_for ~seconds (fun r ->
        round envs r (fun p mode trial dt w total ->
            Pb.attempt chk;
            push times p mode trial dt;
            push words p mode trial w;
            totals := (p, mode, trial, r, total) :: !totals;
            each p mode trial dt total))
  in
  (rounds, times, words, !totals, Pb.peak_heap_mb ())

let run chk ~seed ~seconds =
  let setups = Pb.setup_clock () in
  let env_list = Suite_setup.envs ~seed setups in
  let envs = Array.of_list env_list in
  let rounds, times, _, totals, peak =
    timed chk envs ~seconds ~each:(fun _ _ _ _ _ -> ())
  in
  Suite_setup.repeat chk ~seed setups env_list;
  ignore (check_totals chk envs totals);
  let base_s = total times base and pep_s = total times pep in
  let pep_over_base = ratio_geomean times in
  let setup_s = Pb.setup_s setups in
  let stat = "per-trial minima" in
  Pb.report_setup setups;
  Pb.report "base_s" ~unit_:"s" ~stat ~n:rounds base_s;
  Pb.report "pep_s" ~unit_:"s" ~stat ~n:rounds pep_s;
  Pb.report "pep_over_base" ~unit_:"ratio" ~stat ~n:rounds pep_over_base;
  [ Pb.m "setup_s" "s" setup_s; Pb.m "pep_over_base" "ratio" pep_over_base; Pb.m "peak_heap_mb" "MB" peak ]

(* --- traced run ------------------------------------------------------ *)

(* [Exp_harness.adaptive_total] rebuilt from public calls, with its two
   iterations timed apart.  The cost model, timer phase and driver
   options are fig11's, as the harness sets them. *)
let hand_trial ?telemetry mode ~trial (env : Exp_harness.env) =
  let cost =
    {
      Cost_model.default with
      Cost_model.tick_period = Cost_model.default.Cost_model.tick_period / 4;
    }
  in
  let tick_offset = 1 + (trial * 10007 * 977 mod cost.Cost_model.tick_period) in
  let st = Machine.create ~cost ~tick_offset ~seed:env.Exp_harness.seed env.Exp_harness.program in
  let opts =
    if mode = base then { Driver.default_options with telemetry }
    else
      {
        Driver.default_options with
        opt_profile = Driver.From_pep;
        pep = Some { Driver.sampling = Sampling.pep ~samples:64 ~stride:17; zero = `Hottest; numbering = `Smart };
        telemetry;
      }
  in
  let d = Driver.create opts st in
  let t1, (a, _) = Pb.time (fun () -> Driver.run d) in
  let t2, (b, _) = Pb.time (fun () -> Driver.run d) in
  (t1, t2, a + b)

let traced chk ~seed ~seconds =
  let envs = Suite_setup.envs ~seed (Pb.setup_clock ()) in
  let setup_layers = Suite_setup.layers chk envs in
  let envs = Array.of_list envs in
  let iter1 = grid envs and iter2 = grid envs and hand = grid envs in
  let rounds, untraced, words, totals, _ =
    timed chk envs ~seconds ~each:(fun p mode trial _ total ->
        let dt, (t1, t2, hand_total) = Pb.time (fun () -> hand_trial mode ~trial envs.(p)) in
        push iter1 p mode trial t1;
        push iter2 p mode trial t2;
        push hand p mode trial dt;
        Pb.invariant chk (hand_total = total)
          (Printf.sprintf "hand-built trial %d of %s/%s differs from adaptive_total" trial
             (name envs.(p)) keys.(mode)))
  in
  let want, oracle_base = check_totals chk envs totals in
  (* counts: one PEP-driven pass with a metrics-only sink attached *)
  let tel = Telemetry.create () in
  Array.iteri
    (fun p env ->
      for trial = 0 to trials - 1 do
        let _, _, total = hand_trial ~telemetry:tel pep ~trial env in
        Pb.invariant chk (total = want.(p).(pep).(trial))
          (Printf.sprintf "attaching a telemetry sink changed %s" (name env))
      done)
    envs;
  let virtual_pep =
    Pb.geomean
      (Array.to_list
         (Array.map
            (fun w ->
              float_of_int (Array.fold_left ( + ) 0 w.(pep))
              /. float_of_int (Array.fold_left ( + ) 0 w.(base)))
            want))
  in
  let both g = total g base +. total g pep in
  let trace_overhead = (both hand /. both untraced) -. 1. in
  Pb.report "trace_overhead" ~unit_:"ratio" ~stat:"per-trial minima" ~n:rounds trace_overhead;
  setup_layers
  @ [
      Pb.m "host.base_s" "s" (total untraced base);
      Pb.m "host.pep_s" "s" (total untraced pep);
      Pb.m "runtime.interp_over_codegen" "ratio"
        (Pb.sum (Array.to_list oracle_base) /. total untraced base);
      Pb.m "vm.adaptive_iter1_s" "s" (both iter1);
      Pb.m "vm.adaptive_iter2_s" "s" (both iter2);
      Pb.m "alloc_mwords.base" "Mwords" (total words base /. 1e6);
      Pb.m "alloc_mwords.pep" "Mwords" (total words pep /. 1e6);
      Pb.m "vm.virtual_pep_over_base" "ratio" virtual_pep;
      Pb.m "trace_overhead" "ratio" trace_overhead;
    ]
  @ Pb.registry_counts tel
