(* The [replay] workload: the paper's Fig. 6 method and its perfect
   profilers.  Every suite program goes through [Exp_harness.replay]
   (threaded engine, default tiers, no cache, no telemetry), modes
   interleaved per round: Base and PEP(64,17) in the untraced run; Base,
   instrumentation only, PEP(64,17), perfect path and perfect edge in
   the traced run. *)

type mode = { key : string; profiling : Exp_harness.profiling }

let modes =
  [|
    { key = "base"; profiling = Exp_harness.Base };
    {
      key = "instr";
      profiling =
        Exp_harness.Pep_profiled
          { sampling = Sampling.never; zero = `Hottest; numbering = `Smart };
    };
    { key = "pep"; profiling = Exp_harness.pep_default };
    { key = "path"; profiling = Exp_harness.Perfect_path };
    { key = "edge"; profiling = Exp_harness.Perfect_edge };
  |]

let n_modes = Array.length modes
let base = 0
let instr = 1
let pep = 2
let path = 3
let edge = 4

let config ?(engine = `Threaded) ?telemetry md =
  { Exp_harness.default with profiling = md.profiling; engine; telemetry }

let name (e : Exp_harness.env) = e.Exp_harness.workload.Workload.name
let op_name env r key = Printf.sprintf "%s/%s/round%d" (name env) key r

(* What one replay produced, reduced to what the checks compare:
   measurements, a digest of every profile it collected (the one-time
   baseline profile apart, since a run rebuilt from the cache never
   executes baseline code), and its count of [Error] diagnostics. *)
type output = {
  meas : Exp_harness.measurement;
  digest : string;
  baseline : string;
  errors : int;
}

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let output_of (r : Exp_harness.run) =
  let collected =
    (match r.Exp_harness.pep with
    | Some p -> Path_profile.to_lines p.Pep.paths @ Edge_profile.to_lines p.Pep.edges
    | None -> [])
    @ (match r.Exp_harness.ppaths with
      | Some p -> Path_profile.to_lines p.Profiler.table
      | None -> [])
    @
    match r.Exp_harness.pedges with
    | Some p -> Edge_profile.to_lines p.Profiler.etable
    | None -> []
  in
  {
    meas = r.Exp_harness.meas;
    digest = digest_lines collected;
    baseline =
      digest_lines (Edge_profile.to_lines (Driver.baseline_profile r.Exp_harness.driver));
    errors =
      List.length
        (List.filter
           (fun d -> d.Pep_check.severity = Pep_check.Error)
           r.Exp_harness.checks);
  }

(* Replay the modes [mis] of one program, in an order rotated by
   [shift], each from a collected heap (see [Pb.collected]); [each] sees
   the mode, the wall time, the words allocated and the run.  The runs' checksums must agree
   ([Exp_harness.check_consistent]). *)
let replay_modes chk ~op ~shift mis env each =
  let n = List.length mis in
  let runs =
    List.init n (fun k ->
        let mi = List.nth mis ((k + shift) mod n) in
        Pb.collected ();
        let words, (dt, run) =
          Pb.alloc_words (fun () ->
              Pb.time (fun () -> Exp_harness.replay env (config modes.(mi))))
        in
        Pb.attempt chk;
        each mi dt words run;
        run)
  in
  match Exp_harness.check_consistent runs with
  | () -> ()
  | exception Failure msg ->
      List.iter (fun mi -> Pb.expect chk ~op:(op modes.(mi).key) false msg) mis

(* Per (program, mode): samples in round order. *)
let grid envs = Array.map (fun _ -> Array.make n_modes []) envs
let push g p mi x = g.(p).(mi) <- g.(p).(mi) @ [ x ]

(* The oracle-engine replay of every program under the modes [mis]:
   the reference each timed run's measurements and profiles must
   equal.  Returns the outputs and the oracle's wall time per program
   under Base. *)
let oracle chk mis envs =
  let oracle_base = Array.make (Array.length envs) 0. in
  let outs =
    Array.mapi
      (fun p env ->
        let outs = Array.make n_modes None in
        let runs =
          List.map
            (fun mi ->
              let dt, run =
                Pb.time (fun () ->
                    Exp_harness.replay env (config ~engine:`Oracle modes.(mi)))
              in
              if mi = base then oracle_base.(p) <- dt;
              outs.(mi) <- Some (output_of run);
              run)
            mis
        in
        (match Exp_harness.check_consistent runs with
        | () -> ()
        | exception Failure msg ->
            Pb.invariant chk false (Printf.sprintf "oracle %s: %s" (name env) msg));
        outs)
      envs
  in
  (outs, oracle_base)

(* Check every timed operation's output against the oracle's. *)
let check_outputs chk envs outs oracle_outs =
  Array.iteri
    (fun p env ->
      Array.iteri
        (fun mi per_round ->
          List.iteri
            (fun r o ->
              let op = op_name env r modes.(mi).key in
              Pb.expect chk ~op (o.errors = 0) "Error diagnostics in run.checks";
              match oracle_outs.(p).(mi) with
              | None -> Pb.expect chk ~op false "no oracle replay to check against"
              | Some want ->
                  Pb.expect chk ~op (o.meas = want.meas)
                    "measurements differ from the oracle engine's";
                  Pb.expect chk ~op
                    (o.digest = want.digest && o.baseline = want.baseline)
                    "profiles differ from the oracle engine's")
            per_round)
        outs.(p))
    envs


(* Times are per-operation minima over the run's rounds: on a shared
   host the same replay varies up to 2x in seconds, and the minimum is
   the estimate of its own cost that such interference disturbs
   least.  A suite pass is the sum over programs. *)
let total g mi =
  Pb.sum (Array.to_list (Array.map (fun per_mode -> Pb.minimum per_mode.(mi)) g))

(* Geometric mean over programs of the ratio of minima. *)
let ratio_geomean g num den =
  Pb.geomean
    (Array.to_list
       (Array.map
          (fun per_mode -> Pb.minimum per_mode.(num) /. Pb.minimum per_mode.(den))
          g))

(* The untraced run times only the modes its metrics need, Base and
   PEP(64,17); the traced run replays all five. *)
let e2e_modes = [ base; pep ]
let all_modes = List.init n_modes Fun.id

let run chk ~seed ~seconds =
  let setups = Pb.setup_clock () in
  let env_list = Suite_setup.envs ~seed setups in
  let envs = Array.of_list env_list in
  let times = grid envs and outs = grid envs in
  let rounds =
    Pb.rounds_for ~seconds (fun r ->
        Array.iteri
          (fun p env ->
            replay_modes chk ~op:(op_name env r) ~shift:(r + p) e2e_modes env
              (fun mi dt _words run ->
                push times p mi dt;
                push outs p mi (output_of run)))
          envs)
  in
  let peak = Pb.peak_heap_mb () in
  Suite_setup.repeat chk ~seed setups env_list;
  let oracle_outs, _ = oracle chk e2e_modes envs in
  check_outputs chk envs outs oracle_outs;
  let base_s = total times base and pep_s = total times pep in
  let pep_over_base = ratio_geomean times pep base in
  let setup_s = Pb.setup_s setups in
  let stat = "per-program minima" in
  Pb.report_setup setups;
  Pb.report "base_s" ~unit_:"s" ~stat ~n:rounds base_s;
  Pb.report "pep_s" ~unit_:"s" ~stat ~n:rounds pep_s;
  Pb.report "pep_over_base" ~unit_:"ratio" ~stat ~n:rounds pep_over_base;
  [ Pb.m "setup_s" "s" setup_s; Pb.m "pep_over_base" "ratio" pep_over_base; Pb.m "peak_heap_mb" "MB" peak ]

(* --- traced run ------------------------------------------------------ *)

(* One replay rebuilt from public calls, timed call by call:
   [Machine.create] -> profiler + [Exp_harness.mask_plans] ->
   [Driver.create] -> [Driver.run] x2 -> [Exp_harness.lint_run].
   Compilation is lazy, inside the first run, exactly as in
   [Exp_harness.replay]; its cost is timed on a twin driver by
   [compile_time]. *)
type layer_times = {
  machine : float;
  profiler : float;
  create : float;
  run1 : float;
  run2 : float;
  lint : float;
}

let layer_sum l = l.machine +. l.profiler +. l.create +. l.run1 +. l.run2 +. l.lint

let driver_options (env : Exp_harness.env) md =
  {
    Driver.default_options with
    mode = Driver.Replay env.Exp_harness.advice;
    pep =
      (match md.profiling with
      | Exp_harness.Pep_profiled { sampling; zero; numbering } ->
          Some { Driver.sampling; zero; numbering }
      | _ -> None);
  }

let profilers (env : Exp_harness.env) md st =
  match md.profiling with
  | Exp_harness.Perfect_path ->
      let p = Profiler.perfect_path ~number:(Exp_harness.advice_number env) st in
      Exp_harness.mask_plans env p.Profiler.plans;
      (Some p, None, Some p.Profiler.hooks)
  | Exp_harness.Perfect_edge ->
      let p = Profiler.perfect_edge st in
      (None, Some p, Some p.Profiler.ehooks)
  | _ -> (None, None, None)

let hand_built (env : Exp_harness.env) md =
  let machine, st =
    Pb.time (fun () -> Machine.create ~seed:env.Exp_harness.seed env.Exp_harness.program)
  in
  let profiler, (ppaths, pedges, extra_hooks) = Pb.time (fun () -> profilers env md st) in
  let create, d = Pb.time (fun () -> Driver.create ?extra_hooks (driver_options env md) st) in
  let run1, (iter1, c1) = Pb.time (fun () -> Driver.run d) in
  let run2, (iter2, c2) = Pb.time (fun () -> Driver.run d) in
  let meas =
    {
      Exp_harness.iter1;
      iter2;
      compile = Driver.compile_cycles d;
      checksum = c1 lxor (c2 * 1_000_003);
    }
  in
  let r =
    {
      Exp_harness.meas;
      pep = Driver.pep d;
      ppaths;
      pedges;
      driver = d;
      faults = None;
      checks = [];
    }
  in
  let lint, checks = Pb.time (fun () -> Exp_harness.lint_run r) in
  ({ machine; profiler; create; run1; run2; lint }, { r with checks })

(* [Driver.precompile] on a twin of the hand-built replay. *)
let compile_time (env : Exp_harness.env) md =
  let st = Machine.create ~seed:env.Exp_harness.seed env.Exp_harness.program in
  let _, _, extra_hooks = profilers env md st in
  let d = Driver.create ?extra_hooks (driver_options env md) st in
  fst (Pb.time (fun () -> Driver.precompile d))

(* The replay run cache: fill a temporary cache dir with every
   (program, mode), then time [Exp_cache.run] from a fresh cache over
   the warm dir.  Every recall must be a disk hit with the executed
   run's measurements and profiles.  Returns ms per recalled run. *)
let recall chk ~work envs =
  let dir = Pb.fresh_dir ~work "cache" in
  let executed =
    Array.map
      (fun env ->
        let c = Exp_cache.create ~cache_dir:dir env in
        Array.map (fun md -> output_of (Exp_cache.run c (config md))) modes)
      envs
  in
  let times =
    Array.mapi
      (fun p env ->
        let c = Exp_cache.create ~cache_dir:dir env in
        let ts =
          Array.mapi
            (fun mi md ->
              let dt, run = Pb.time (fun () -> Exp_cache.run c (config md)) in
              let o = output_of run in
              Pb.invariant chk
                (o.meas = executed.(p).(mi).meas && o.digest = executed.(p).(mi).digest)
                (Printf.sprintf "recalled %s/%s differs from the executed run" (name env)
                   md.key);
              dt)
            modes
        in
        let s = Exp_cache.stats c in
        Pb.invariant chk
          (s.Exp_cache.disk_hits = n_modes && s.Exp_cache.executed = 0)
          (Printf.sprintf "recall of %s was not served from disk" (name env));
        Pb.sum (Array.to_list ts))
      envs
  in
  Pb.rm_rf dir;
  1000. *. Pb.sum (Array.to_list times) /. float_of_int (Array.length envs * n_modes)

(* Host versus virtual overhead per program and profiling mode: host
   second-iteration time, host whole-replay time and virtual
   second-iteration cycles, each over Base. *)
let overhead_table ~seed ~rounds envs (run2 : float list array array) untraced
    (meas : Exp_harness.measurement array array) =
  let row p mi =
    let r g = Pb.minimum g.(p).(mi) /. Pb.minimum g.(p).(base) in
    Printf.sprintf
      "    {\"program\": %S, \"mode\": %S, \"host_iter2\": %.4f, \"host_replay\": %.4f, \
       \"virtual_iter2\": %.4f}"
      (name envs.(p)) modes.(mi).key (r run2) (r untraced)
      (float_of_int meas.(p).(mi).Exp_harness.iter2
      /. float_of_int meas.(p).(base).Exp_harness.iter2)
  in
  let rows =
    List.concat_map
      (fun p -> List.map (row p) [ pep; path; edge ])
      (List.init (Array.length envs) Fun.id)
  in
  Printf.sprintf
    "{\n  \"seed\": %d,\n  \"rounds\": %d,\n  \"method\": \"host times are per-replay minima over \
     interleaved rounds; ratios are over Base\",\n  \"rows\": [\n%s\n  ]\n}\n"
    seed rounds (String.concat ",\n" rows)

(* Accounting tolerance: the per-layer times must add up to the
   untraced pass within this share of it.  The rebuilt replays run the
   same calls as [Exp_harness.replay], so what is left is timer
   overhead and the noise between two executions of the same replay
   (up to 4% of the pass over two rounds on a busy 2-vCPU host); work
   the rebuilt layers leave out shows as a remainder beyond it. *)
let account_tolerance = 0.10

let traced chk ~seed ~seconds ~work ~table_out =
  let envs = Suite_setup.envs ~seed (Pb.setup_clock ()) in
  let setup_layers = Suite_setup.layers chk envs in
  let envs = Array.of_list envs in
  let untraced = grid envs and layers = grid envs and compiles = grid envs in
  let alloc = grid envs and outs = grid envs in
  let meas = Array.map (fun _ -> Array.make n_modes None) envs in
  let traced_times = grid envs in
  let rounds =
    Pb.rounds_for ~seconds (fun r ->
        Array.iteri
          (fun p env ->
            replay_modes chk ~op:(op_name env r) ~shift:(r + p) all_modes env
              (fun mi dt words run ->
                let md = modes.(mi) in
                let o = output_of run in
                push untraced p mi dt;
                push alloc p mi words;
                push outs p mi o;
                meas.(p).(mi) <- Some o.meas;
                let traced_dt, (lt, hand) = Pb.time (fun () -> hand_built env md) in
                push layers p mi lt;
                push compiles p mi (compile_time env md);
                push traced_times p mi traced_dt;
                let h = output_of hand in
                Pb.invariant chk
                  (h.meas = o.meas && h.digest = o.digest && h.baseline = o.baseline
                  && hand.Exp_harness.checks = run.Exp_harness.checks)
                  (Printf.sprintf
                     "hand-built replay of %s/%s differs from Exp_harness.replay"
                     (name env) md.key)))
          envs)
  in
  let oracle_outs, oracle_base = oracle chk all_modes envs in
  check_outputs chk envs outs oracle_outs;
  let meas = Array.map (Array.map Option.get) meas in
  (* counts: one PEP pass with a metrics-only sink attached *)
  let tel = Telemetry.create () in
  Array.iteri
    (fun p env ->
      let r = Exp_harness.replay env (config ~telemetry:tel modes.(pep)) in
      Pb.invariant chk
        (r.Exp_harness.meas = meas.(p).(pep))
        (Printf.sprintf "attaching a telemetry sink changed %s" (name env)))
    envs;
  let counts = Pb.registry_counts tel in
  let samples =
    (List.find (fun (c : Pb.metric) -> c.Pb.name = "pep.samples.taken") counts).Pb.value
  in
  let recall_ms = recall chk ~work envs in
  let layer mi f =
    Pb.sum
      (Array.to_list (Array.map (fun per_mode -> Pb.minimum (List.map f per_mode.(mi))) layers))
  in
  let compile mi = total compiles mi in
  (* layer accounting, over one pass of all five modes *)
  let all f = Pb.sum (List.map f all_modes) in
  let untraced_pass = all (total untraced) in
  let traced_pass = all (total traced_times) in
  let layer_pass = all (fun mi -> layer mi layer_sum) in
  let trace_overhead = (traced_pass /. untraced_pass) -. 1. in
  let unattributed = untraced_pass -. layer_pass in
  Pb.invariant chk
    (Float.abs unattributed <= account_tolerance *. untraced_pass)
    (Printf.sprintf "layers account for %.3fs of a %.3fs untraced pass" layer_pass
       untraced_pass);
  let exec mi = layer mi (fun l -> l.run1 +. l.run2) -. compile mi in
  let virtual_ratio mi =
    Pb.geomean
      (Array.to_list
         (Array.map
            (fun m ->
              float_of_int m.(mi).Exp_harness.iter2 /. float_of_int m.(base).Exp_harness.iter2)
            meas))
  in
  let alloc_mwords mi = total alloc mi /. 1e6 in
  let sample_s = exec pep -. exec instr in
  (match table_out with
  | None -> ()
  | Some file ->
      let run2 = Array.map (Array.map (List.map (fun l -> l.run2))) layers in
      Out_channel.with_open_text file (fun oc ->
          output_string oc (overhead_table ~seed ~rounds envs run2 untraced meas)));
  Pb.report "trace_overhead" ~unit_:"ratio" ~stat:"pass minima" ~n:rounds trace_overhead;
  Pb.report "replay.unattributed_s" ~unit_:"s" ~stat:"pass minima" ~n:rounds unattributed;
  setup_layers
  @ [
      Pb.m "host.base_s" "s" (total untraced base);
      Pb.m "host.pep_s" "s" (total untraced pep);
      Pb.m "vm.compile_s" "s" (compile pep);
      Pb.m "runtime.exec_s" "s" (exec base);
      Pb.m "runtime.interp_over_codegen" "ratio"
        (Pb.sum (Array.to_list oracle_base) /. total untraced base);
      Pb.m "blpp.instr_hooks_s" "s" (exec instr -. exec base);
      Pb.m "blpp.path_hooks_s" "s" (exec path -. exec base);
      Pb.m "blpp.edge_hooks_s" "s" (exec edge -. exec base);
      Pb.m "blpp.path_over_base" "ratio" (ratio_geomean untraced path base);
      Pb.m "blpp.edge_over_base" "ratio" (ratio_geomean untraced edge base);
      Pb.m "core.sample_s" "s" sample_s;
      Pb.m "core.sample_ns" "ns" (if samples > 0. then sample_s /. samples *. 1e9 else 0.);
      Pb.m "analysis.lint_s" "s" (layer pep (fun l -> l.lint));
      Pb.m "experiments.recall_ms" "ms" recall_ms;
      Pb.m "alloc_mwords.base" "Mwords" (alloc_mwords base);
      Pb.m "alloc_mwords.instr" "Mwords" (alloc_mwords instr);
      Pb.m "alloc_mwords.pep" "Mwords" (alloc_mwords pep);
      Pb.m "alloc_mwords.path" "Mwords" (alloc_mwords path);
      Pb.m "alloc_mwords.edge" "Mwords" (alloc_mwords edge);
      Pb.m "vm.virtual_pep_over_base" "ratio" (virtual_ratio pep);
      Pb.m "vm.virtual_path_over_base" "ratio" (virtual_ratio path);
      Pb.m "vm.virtual_edge_over_base" "ratio" (virtual_ratio edge);
      Pb.m "replay.unattributed_s" "s" unattributed;
      Pb.m "trace_overhead" "ratio" trace_overhead;
    ]
  @ counts
