(* Differential testing of the closure-threaded engine (Codegen) against
   the interpreter oracle (Interp), plus the engine-specific contracts:
   inline-cache invalidation on recompile/set_speed, hook specialization,
   and steady-state allocation behaviour. *)

open Ast

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let csl = Alcotest.(list string)

(* ------------------------- differential suite ------------------------- *)

let pep_profiling =
  Exp_harness.Pep_profiled
    {
      sampling = Sampling.pep ~samples:64 ~stride:17;
      zero = `Hottest;
      numbering = `Smart;
    }

let with_engine engine config = { config with Exp_harness.engine }
let cfg profiling = { Exp_harness.default with Exp_harness.profiling }

(* PEP degrading under faults: overrun sample handlers and a path table
   too small for the workload's hot paths *)
let faulted_pep =
  {
    (cfg pep_profiling) with
    Exp_harness.faults = Fault_plan.parse_exn "sample-overrun=0.2,path-cap=3";
  }

let configs =
  [
    ("Base", cfg Exp_harness.Base);
    ("Pep_profiled", cfg pep_profiling);
    ("Perfect_path", cfg Exp_harness.Perfect_path);
    ("Perfect_edge", cfg Exp_harness.Perfect_edge);
    ("Classic_blpp", cfg Exp_harness.Classic_blpp);
    ("Instr_back_edge", cfg Exp_harness.Instr_back_edge);
    ("Pep_faulted", faulted_pep);
  ]

let meas_pp ppf (m : Exp_harness.measurement) =
  Fmt.pf ppf "{iter1=%d; iter2=%d; compile=%d; checksum=%d}" m.iter1 m.iter2
    m.compile m.checksum

let meas : Exp_harness.measurement Alcotest.testable =
  Alcotest.testable meas_pp ( = )

(* Every observable of a run: the measurement and every collected
   profile, serialized.  Two engines must agree on all of it. *)
let observables (r : Exp_harness.run) =
  let profile_lines =
    (match r.pep with
    | Some p ->
        Path_profile.to_lines p.Pep.paths @ Edge_profile.to_lines p.Pep.edges
    | None -> [])
    @ (match r.ppaths with
      | Some p -> Path_profile.to_lines p.Profiler.table
      | None -> [])
    @ (match r.pedges with
      | Some p -> Edge_profile.to_lines p.Profiler.etable
      | None -> [])
    @ Edge_profile.to_lines (Driver.baseline_profile r.driver)
    @ (match r.faults with
      | Some inj ->
          let c = Fault_injector.counts inj in
          [
            Fmt.str "faults: overrun=%d dropped=%d path_overflow=%d"
              c.Fault_injector.sample_overrun c.Fault_injector.samples_dropped
              c.Fault_injector.path_overflow;
          ]
      | None -> [])
  in
  (r.meas, profile_lines)

(* Oracle-vs-threaded differential over an arbitrary workload (the
   wgen suite reuses this for generated specs). *)
let diff_of ?(seed = 11) (w : Workload.t) () =
  let name = w.Workload.name in
  let size = max 4 (min 30 w.Workload.default_size) in
  let env = Exp_harness.make_env ~size ~seed w in
  List.iter
    (fun (cname, config) ->
      let oracle = Exp_harness.replay env (with_engine `Oracle config) in
      let threaded = Exp_harness.replay env (with_engine `Threaded config) in
      let om, op = observables oracle and tm, tp = observables threaded in
      check meas (name ^ "/" ^ cname ^ " measurement") om tm;
      check csl (name ^ "/" ^ cname ^ " profiles") op tp)
    configs

let diff_workload name = diff_of (Suite.find name)

(* The adaptive system promotes methods mid-execution (set_speed and
   recompilation from a timer-tick hook while frames of the method are
   live); both engines must agree there too, including on the advice the
   warmup produces. *)
let test_adaptive_differential () =
  List.iter
    (fun name ->
      let w = Suite.find name in
      let size = max 4 (min 25 w.Workload.default_size) in
      let oenv =
        Exp_harness.make_env
          ~config:(with_engine `Oracle Exp_harness.default)
          ~size ~seed:5 w
      in
      let tenv =
        Exp_harness.make_env
          ~config:(with_engine `Threaded Exp_harness.default)
          ~size ~seed:5 w
      in
      check
        Alcotest.(array int)
        (name ^ " advice levels") oenv.advice.Advice.levels
        tenv.advice.Advice.levels;
      check csl (name ^ " advice profile")
        (Edge_profile.to_lines oenv.advice.Advice.profile)
        (Edge_profile.to_lines tenv.advice.Advice.profile);
      List.iter
        (fun (label, profiling) ->
          check ci
            (Fmt.str "%s adaptive total (%s)" name label)
            (Exp_harness.adaptive_total
               ~config:(with_engine `Oracle (cfg profiling))
               ~trial:3 oenv)
            (Exp_harness.adaptive_total
               ~config:(with_engine `Threaded (cfg profiling))
               ~trial:3 tenv))
        [ ("plain", Exp_harness.Base); ("pep", pep_profiling) ])
    [ "compress"; "jython" ]

(* Body transformations (inlining, unrolling) recompile methods into
   fresh compiled forms; the engine must pick up the new bodies. *)
let test_transform_differential () =
  List.iter
    (fun name ->
      let w = Suite.find name in
      let size = max 4 (min 25 w.Workload.default_size) in
      let env = Exp_harness.make_env ~size ~seed:7 w in
      let transformed engine =
        {
          (cfg pep_profiling) with
          Exp_harness.inline = true;
          unroll = true;
          engine;
        }
      in
      let oracle = Exp_harness.replay env (transformed `Oracle) in
      let threaded = Exp_harness.replay env (transformed `Threaded) in
      let om, op = observables oracle and tm, tp = observables threaded in
      check meas (name ^ " transformed measurement") om tm;
      check csl (name ^ " transformed profiles") op tp)
    [ "db"; "pmd" ]

(* PEP and a perfect path profiler on the same run, the profiler's
   closure hooks added after PEP's baked layer with [Driver.add_hooks]
   (the shape [Exp_drift] uses): both profiles and the measurements
   must match the oracle's. *)
let test_composed_truth_differential () =
  List.iter
    (fun (name, inline) ->
      let w = Suite.find name in
      let env =
        Exp_harness.make_env ~size:(max 4 (min 25 w.Workload.default_size))
          ~seed:9 w
      in
      let run engine =
        let driver, pep, truth =
          Exp_harness.replay_transformed_with_truth
            ~config:{ Exp_harness.default with Exp_harness.inline; engine }
            env
        in
        ( (Driver.machine driver).Machine.cycles,
          Path_profile.to_lines pep.Pep.paths
          @ Edge_profile.to_lines pep.Pep.edges
          @ Path_profile.to_lines truth.Profiler.table )
      in
      let oc, op = run `Oracle and tc, tp = run `Threaded in
      check ci (name ^ " composed cycles") oc tc;
      check csl (name ^ " composed profiles") op tp;
      check cb (name ^ " truth profiled something") true (List.length tp > 0))
    [ ("jess", false); ("db", true) ]

(* A method re-instrumented while a frame of it is live: [main] runs one
   long loop per iteration and the adaptive system opt-compiles it from
   a timer tick inside that loop, installing a new PEP plan (and, with
   inlining, a new body with new block ids) while the old frame keeps
   executing its old code.  That frame's next events must use the new
   plan against the old body's block ids, exactly as the oracle does. *)
let test_live_reinstrumentation () =
  let program =
    Compile.program ~name:"live" ~main:"main"
      [
        mdef "main" ~params:[]
          [
            set "s" (i 0);
            for_ "k" (i 0) (i 4000)
              [
                if_ (eq (band (v "k") (i 3)) (i 0))
                  [ set "s" (add (v "s") (call "f" [ v "k"; v "s" ])) ]
                  [ set "s" (sub (v "s") (i 1)) ];
              ];
            ret (v "s");
          ];
        mdef "f" ~params:[ "a"; "b" ]
          [
            if_ (lt (v "a") (v "b")) [ ret (add (v "a") (i 1)) ] [ ret (v "b") ];
          ];
      ]
  in
  List.iter
    (fun inline ->
      let run engine =
        let cost =
          {
            Cost_model.default with
            Cost_model.tick_period = Cost_model.default.Cost_model.tick_period / 50;
          }
        in
        let st = Machine.create ~cost ~seed:4 program in
        let d =
          Driver.create
            {
              Driver.default_options with
              mode = Driver.Adaptive { thresholds = [| 1; 2; 3 |] };
              opt_profile = Driver.From_pep;
              pep =
                Some
                  {
                    Driver.sampling = Sampling.pep ~samples:4 ~stride:3;
                    zero = `Hottest;
                    numbering = `Smart;
                  };
              inline;
              engine;
            }
            st
        in
        let r1 = Driver.run d in
        let r2 = Driver.run d in
        let p = Option.get (Driver.pep d) in
        ( (r1, r2, st.Machine.cycles, Driver.recompilations d),
          Path_profile.to_lines p.Pep.paths
          @ Edge_profile.to_lines p.Pep.edges
          @ Edge_profile.to_lines (Driver.baseline_profile d) )
      in
      let label = if inline then "inline" else "plain" in
      let ((_, _, _, recompiles) as om), op = run `Oracle in
      let tm, tp = run `Threaded in
      check cb (label ^ " main re-instrumented mid-run") true (recompiles >= 1);
      check cb (label ^ " runs, cycles, recompiles") true (om = tm);
      check csl (label ^ " profiles") op tp)
    [ false; true ]

(* The baked configuration against its closure form, outside the driver:
   a tick driver, an always-on edge counter and a path layer in either
   truncation mode (back-edge plans carry path counts on edges), run by
   the engine as data and by the oracle as [Interp.compose]d hooks. *)
let test_baked_layer_matches_closures () =
  List.iter
    (fun (name, mode, count_cost) ->
      let w = Suite.find name in
      let program = Workload.program ~size:(max 4 (min 20 w.Workload.default_size)) w in
      let setup () =
        let st = Machine.create ~tick_offset:5000 ~seed:2 program in
        let n_methods = Program.n_methods program in
        let plans =
          Profile_hooks.make_plans ~mode
            ~number:(fun _ dag -> Numbering.ball_larus dag)
            st
        in
        let paths = Path_profile.create_table ~n_methods in
        let layer =
          {
            Profile_hooks.plans;
            count_cost;
            on_path_end =
              (fun _ (f : Interp.frame) ~path_id ->
                Path_profile.incr paths.(f.Interp.fmeth) path_id);
            armed = ref true;
          }
        in
        let edges =
          {
            Codegen.table = Edge_profile.create_table ~n_methods;
            active = Array.make n_methods true;
          }
        in
        (st, layer, edges, paths)
      in
      let st_o, layer_o, edges_o, paths_o = setup () in
      let oracle =
        Interp.compose (Tick.hooks ())
          (Interp.compose
             (Profile_hooks.edge_count_hooks ~active:edges_o.Codegen.active
                st_o ~table:edges_o.Codegen.table)
             (Profile_hooks.path_hooks ~plans:layer_o.Profile_hooks.plans
                ~count_cost:layer_o.Profile_hooks.count_cost
                ~on_path_end:layer_o.Profile_hooks.on_path_end ()))
      in
      let st_t, layer_t, edges_t, paths_t = setup () in
      let eng = Codegen.create st_t in
      Codegen.set_instr eng
        {
          Codegen.no_instr with
          tick = Some (Tick.handler ());
          edges = Some edges_t;
          paths = Some layer_t;
        };
      let r_o = Interp.run oracle st_o and r_t = Codegen.run eng in
      let label =
        name ^ match mode with Dag.Back_edge -> "/back-edge" | Dag.Loop_header -> "/header"
      in
      check ci (label ^ " result") r_o r_t;
      check ci (label ^ " cycles") st_o.Machine.cycles st_t.Machine.cycles;
      check csl (label ^ " paths") (Path_profile.to_lines paths_o)
        (Path_profile.to_lines paths_t);
      check csl (label ^ " edges")
        (Edge_profile.to_lines edges_o.Codegen.table)
        (Edge_profile.to_lines edges_t.Codegen.table);
      check cb (label ^ " paths counted") true (Path_profile.to_lines paths_t <> []))
    [
      ("jess", Dag.Back_edge, `Array);
      ("db", Dag.Back_edge, `Array);
      ("jess", Dag.Loop_header, `Hash);
      ("compress", Dag.Loop_header, `None);
    ]

(* --------------------- engine-specific contracts --------------------- *)

let tiny_defs body_ret =
  [
    mdef "main" ~params:[]
      [
        set "s" (i 0);
        for_ "k" (i 0) (i 40)
          [
            if_ (eq (band (v "k") (i 3)) (i 0))
              [ set "s" (add (v "s") (call "f" [ v "k"; v "s" ])) ]
              [ set "s" (add (v "s") (i 1)) ];
          ];
        ret (v "s");
      ];
    mdef "f" ~params:[ "a"; "b" ] body_ret;
  ]

let tiny_program ?(body_ret = [ ret (add (v "a") (v "b")) ]) () =
  Compile.program ~name:"t" ~main:"main" (tiny_defs body_ret)

let test_engine_matches_oracle () =
  let p = tiny_program () in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_t = Codegen.run (Codegen.create st_t) in
  check ci "result" r_o r_t;
  check ci "cycles" st_o.Machine.cycles st_t.Machine.cycles

let test_set_speed_invalidates () =
  let p = tiny_program () in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let eng = Codegen.create st_t in
  ignore (Interp.run Interp.no_hooks st_o);
  ignore (Codegen.run eng);
  let run1 = st_t.Machine.cycles in
  let fidx = Machine.index st_t "f" in
  Machine.set_speed st_o fidx ~percent:700;
  Machine.set_speed st_t fidx ~percent:700;
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_t = Codegen.run eng in
  check ci "result after set_speed" r_o r_t;
  check ci "cycles after set_speed" st_o.Machine.cycles st_t.Machine.cycles;
  check cb "speed change visible in cycles" true
    (st_t.Machine.cycles - run1 <> run1)

let test_recompile_invalidates () =
  let p = tiny_program () in
  let replacement =
    Program.find
      (tiny_program ~body_ret:[ ret (mul (sub (v "a") (v "b")) (i 3)) ] ())
      "f"
  in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let eng = Codegen.create st_t in
  let before_o = Interp.run Interp.no_hooks st_o in
  let before_t = Codegen.run eng in
  check ci "result before recompile" before_o before_t;
  let fidx = Machine.index st_t "f" in
  Machine.recompile st_o fidx replacement;
  Machine.recompile st_t fidx replacement;
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_t = Codegen.run eng in
  check cb "recompile changed behaviour" true (r_t <> before_t);
  check ci "result after recompile" r_o r_t;
  check ci "cycles after recompile" st_o.Machine.cycles st_t.Machine.cycles

(* Hook specialization: the hooked variant must deliver the same events,
   in the same order, as the oracle. *)
let test_hook_parity () =
  let p = tiny_program () in
  let trace_hooks trace =
    {
      Interp.on_entry =
        Some
          (fun _ (f : Interp.frame) ->
            trace := (`E, f.Interp.fmeth, 0, 0) :: !trace);
      on_exit =
        Some
          (fun _ (f : Interp.frame) ->
            trace := (`X, f.Interp.fmeth, 0, 0) :: !trace);
      on_edge =
        Some
          (fun _ (f : Interp.frame) ~src ~idx ~dst:_ ->
            trace := (`D, f.Interp.fmeth, src, idx) :: !trace);
      on_yieldpoint =
        Some
          (fun _ (f : Interp.frame) blk ->
            trace := (`Y, f.Interp.fmeth, blk, 0) :: !trace);
    }
  in
  let st_o = Machine.create ~tick_offset:50 ~seed:3 p
  and st_t = Machine.create ~tick_offset:50 ~seed:3 p in
  let tr_o = ref [] and tr_t = ref [] in
  let r_o = Interp.run (trace_hooks tr_o) st_o in
  let eng = Codegen.create st_t in
  Codegen.set_instr eng { Codegen.no_instr with pre = trace_hooks tr_t };
  let r_t = Codegen.run eng in
  check ci "result" r_o r_t;
  check ci "cycles" st_o.Machine.cycles st_t.Machine.cycles;
  check cb "hook event sequences identical" true (!tr_o = !tr_t);
  check cb "events seen" true (List.length !tr_o > 50)

(* Switching hooks on an existing engine re-specializes: bare runs must
   not fire hooks, hooked runs must. *)
let test_hook_switch () =
  let p = tiny_program () in
  let st = Machine.create ~seed:3 p in
  let eng = Codegen.create st in
  let r1 = Codegen.run eng in
  let edges = ref 0 in
  Codegen.set_instr eng
    {
      Codegen.no_instr with
      pre =
        {
          Interp.no_hooks with
          on_edge = Some (fun _ _ ~src:_ ~idx:_ ~dst:_ -> incr edges);
        };
    };
  let r2 = Codegen.run eng in
  check ci "same result under hooks" r1 r2;
  check cb "hooks fired" true (!edges > 0);
  let fired = !edges in
  Codegen.set_instr eng Codegen.no_instr;
  let r3 = Codegen.run eng in
  check ci "same result bare again" r1 r3;
  check ci "bare run fires no hooks" fired !edges

(* ------------------ plan installs and the path-end gate ------------------ *)

(* [f] has a loop and a branch, so its loop-header and back-edge plans
   differ; [main] calls it from a loop (a warm inline cache), and [r]
   recurses [n] deep from inside a loop, so every frame keeps running
   after its callee returns. *)
let install_program () =
  Compile.program ~name:"install" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 60)
            [
              set "s" (add (v "s") (call "f" [ v "k" ]));
              if_ (eq (band (v "k") (i 15)) (i 0))
                [ set "s" (add (v "s") (call "r" [ i 9 ])) ]
                [];
            ];
          ret (v "s");
        ];
      mdef "f" ~params:[ "a" ]
        [
          set "t" (i 0);
          for_ "j" (i 0) (band (v "a") (i 7))
            [
              if_ (eq (band (v "j") (i 1)) (i 0))
                [ set "t" (add (v "t") (v "j")) ]
                [ set "t" (sub (v "t") (i 1)) ];
            ];
          ret (v "t");
        ];
      mdef "r" ~params:[ "n" ]
        [
          if_ (le (v "n") (i 0)) [ ret (i 1) ] [];
          set "t" (i 0);
          for_ "j" (i 0) (i 4)
            [
              if_ (eq (v "j") (i 1))
                [ set "t" (add (v "t") (call "r" [ sub (v "n") (i 1) ])) ]
                [
                  if_ (lt (v "j") (v "n"))
                    [ set "t" (add (v "t") (i 2)) ]
                    [ set "t" (sub (v "t") (i 1)) ];
                ];
            ];
          ret (v "t");
        ];
    ]

let bl_number _ dag = Numbering.ball_larus dag

(* A layer counting every path end into a table of its own. *)
let recording_layer plans =
  let paths = Path_profile.create_table ~n_methods:(Array.length plans) in
  ( {
      Profile_hooks.plans;
      count_cost = `Hash;
      on_path_end =
        (fun _ (f : Interp.frame) ~path_id ->
          Path_profile.incr paths.(f.Interp.fmeth) path_id);
      armed = ref true;
    },
    paths )

let layer_hooks (l : Profile_hooks.path_layer) =
  Profile_hooks.path_hooks ~plans:l.Profile_hooks.plans
    ~count_cost:l.Profile_hooks.count_cost
    ~on_path_end:l.Profile_hooks.on_path_end ()

(* One side of an oracle-vs-engine comparison: a machine over
   [install_program] with loop-header plans in a recording layer, and
   the back-edge plan of [meth] as the replacement to install. *)
let install_side meth =
  let st = Machine.create ~tick_offset:700 ~seed:6 (install_program ()) in
  let plans = Profile_hooks.make_plans ~mode:Dag.Loop_header ~number:bl_number st in
  let layer, paths = recording_layer plans in
  let midx = Machine.index st meth in
  let replacement =
    Profile_hooks.plan_for ~mode:Dag.Back_edge ~number:bl_number st midx
  in
  (st, layer, paths, midx, replacement)

let check_replacement_differs label (plans : Profile_hooks.plans) midx replacement =
  let old = Option.get plans.(midx) and rep = Option.get replacement in
  check cb (label ^ ": replacement plan differs") true
    (old.Instrument.edge_steps <> rep.Instrument.edge_steps)

(* A plan replaced with no generation bump, then the method re-entered
   through a warm inline cache: the translation must stop using its
   baked steps.  A new hot mask first drops the cached body, so only
   [main]'s inline cache still holds [f]'s translation; every call in
   the second run hits that cache. *)
let test_install_warm_ic () =
  let st_o, layer_o, paths_o, fidx, rep = install_side "f" in
  let st_t, layer_t, paths_t, _, _ = install_side "f" in
  check_replacement_differs "f" layer_o.Profile_hooks.plans fidx rep;
  let oracle = Interp.compose (Tick.hooks ()) (layer_hooks layer_o) in
  let tel = Telemetry.create () in
  let eng = Codegen.create ~telemetry:tel st_t in
  Codegen.set_instr eng
    { Codegen.no_instr with tick = Some (Tick.handler ()); paths = Some layer_t };
  let misses () =
    Metrics.value (Metrics.counter (Telemetry.metrics tel) "engine.ic.misses")
  in
  let r1_o = Interp.run oracle st_o and r1_t = Codegen.run eng in
  let warm = misses () in
  let gen = st_t.Machine.methods.(fidx).Machine.gen in
  Codegen.set_hot_blocks eng fidx
    (Array.make
       (Array.length st_t.Machine.methods.(fidx).Machine.meth.Method.blocks)
       true);
  layer_o.Profile_hooks.plans.(fidx) <- rep;
  Codegen.install_plan eng layer_t.Profile_hooks.plans fidx rep;
  let r2_o = Interp.run oracle st_o and r2_t = Codegen.run eng in
  check ci "no generation bump" gen st_t.Machine.methods.(fidx).Machine.gen;
  check ci "second run served by warm inline caches" warm (misses ());
  check ci "run 1 result" r1_o r1_t;
  check ci "run 2 result" r2_o r2_t;
  check ci "cycles" st_o.Machine.cycles st_t.Machine.cycles;
  check csl "paths" (Path_profile.to_lines paths_o) (Path_profile.to_lines paths_t)

(* A recursive method whose plan is replaced from an entry hook while
   several of its frames are live: [r] is called as the root, and the
   hook fires on entering it at depth 6, so frames at depths 1-5 resume
   under the new plan.  With [bump], [r] is also recompiled on entry at
   depth 4: frames 4-5 then run a fresh translation (still baking the
   old plan) and frames 1-3 one that only the frame pool still holds. *)
let test_install_live_recursion () =
  List.iter
    (fun bump ->
      let side () =
        let ((_, layer, _, ridx, rep) as s) = install_side "r" in
        let installed = ref false in
        let install =
          ref (fun () -> layer.Profile_hooks.plans.(ridx) <- rep)
        in
        let pre =
          {
            Interp.no_hooks with
            on_entry =
              Some
                (fun st (f : Interp.frame) ->
                  if f.Interp.fmeth = ridx && not !installed then begin
                    if bump && st.Machine.depth = 4 then
                      Machine.set_speed st ridx ~percent:150;
                    if st.Machine.depth = 6 then begin
                      installed := true;
                      !install ()
                    end
                  end);
          }
        in
        (s, pre, install, installed)
      in
      let (st_o, layer_o, paths_o, ridx, rep), pre_o, _, installed_o = side () in
      let (st_t, layer_t, paths_t, _, _), pre_t, install_t, installed_t = side () in
      check_replacement_differs "r" layer_o.Profile_hooks.plans ridx rep;
      let oracle =
        Interp.compose (Tick.hooks ()) (Interp.compose pre_o (layer_hooks layer_o))
      in
      let eng = Codegen.create st_t in
      (install_t :=
         fun () -> Codegen.install_plan eng layer_t.Profile_hooks.plans ridx rep);
      Codegen.set_instr eng
        {
          Codegen.no_instr with
          tick = Some (Tick.handler ());
          pre = pre_t;
          paths = Some layer_t;
        };
      let label = if bump then "recompiled" else "same body" in
      let r_o = Interp.call oracle st_o "r" [| 9 |]
      and r_t = Codegen.call eng "r" [| 9 |] in
      check cb (label ^ ": installed mid-recursion") true
        (!installed_o && !installed_t);
      check ci (label ^ ": result") r_o r_t;
      check ci (label ^ ": cycles") st_o.Machine.cycles st_t.Machine.cycles;
      check csl (label ^ ": paths")
        (Path_profile.to_lines paths_o)
        (Path_profile.to_lines paths_t))
    [ false; true ]

(* A layer swapped by [set_instr] between runs while translations are
   cached: the second run must execute the new layer's plans. *)
let test_layer_swap () =
  let side () =
    let st = Machine.create ~tick_offset:700 ~seed:6 (install_program ()) in
    let layer mode =
      recording_layer (Profile_hooks.make_plans ~mode ~number:bl_number st)
    in
    (st, layer Dag.Loop_header, layer Dag.Back_edge)
  in
  let st_o, (a_o, pa_o), (b_o, pb_o) = side () in
  let st_t, (a_t, pa_t), (b_t, pb_t) = side () in
  let oracle l = Interp.compose (Tick.hooks ()) (layer_hooks l) in
  let eng = Codegen.create st_t in
  let install l =
    Codegen.set_instr eng
      { Codegen.no_instr with tick = Some (Tick.handler ()); paths = Some l }
  in
  install a_t;
  let r1_o = Interp.run (oracle a_o) st_o and r1_t = Codegen.run eng in
  install b_t;
  let r2_o = Interp.run (oracle b_o) st_o and r2_t = Codegen.run eng in
  check ci "run 1 result" r1_o r1_t;
  check ci "run 2 result" r2_o r2_t;
  check ci "cycles" st_o.Machine.cycles st_t.Machine.cycles;
  check csl "first layer's paths" (Path_profile.to_lines pa_o)
    (Path_profile.to_lines pa_t);
  check csl "second layer's paths" (Path_profile.to_lines pb_o)
    (Path_profile.to_lines pb_t);
  check cb "second layer counted" true (Path_profile.to_lines pb_t <> [])

(* The path-end gate: the engine calls PEP's handler only while a burst
   is armed or a tick is pending, the oracle at every path end.  The
   engine must make strictly fewer calls and agree on everything. *)
let test_path_end_gate () =
  List.iter
    (fun sampling ->
      let w = Suite.find "jess" in
      let program = Workload.program ~size:(max 4 (min 20 w.Workload.default_size)) w in
      let side () =
        let st = Machine.create ~tick_offset:5000 ~seed:2 program in
        let p = Pep.create ~sampling st in
        let calls = ref 0 in
        let layer =
          {
            p.Pep.layer with
            Profile_hooks.on_path_end =
              (fun st f ~path_id ->
                incr calls;
                p.Pep.layer.Profile_hooks.on_path_end st f ~path_id);
          }
        in
        (st, p, layer, calls)
      in
      let st_o, p_o, layer_o, calls_o = side () in
      let st_t, p_t, layer_t, calls_t = side () in
      let eng = Codegen.create st_t in
      Codegen.set_instr eng
        { Codegen.no_instr with tick = Some (Tick.handler ()); paths = Some layer_t };
      let r_o = Interp.run (Interp.compose (Tick.hooks ()) (layer_hooks layer_o)) st_o in
      let r_t = Codegen.run eng in
      let label = Sampling.name sampling in
      check ci (label ^ " result") r_o r_t;
      check ci (label ^ " cycles") st_o.Machine.cycles st_t.Machine.cycles;
      check ci (label ^ " samples") (Pep.n_samples p_o) (Pep.n_samples p_t);
      check csl (label ^ " profiles")
        (Path_profile.to_lines p_o.Pep.paths @ Edge_profile.to_lines p_o.Pep.edges)
        (Path_profile.to_lines p_t.Pep.paths @ Edge_profile.to_lines p_t.Pep.edges);
      check cb
        (Fmt.str "%s: engine calls %d < oracle calls %d" label !calls_t !calls_o)
        true
        (!calls_t < !calls_o && !calls_t > 0);
      if sampling.Sampling.samples > 0 then
        check cb (label ^ " sampled") true (Pep.n_samples p_t > 0))
    [ Sampling.never; Sampling.pep ~samples:1 ~stride:1; Sampling.pep ~samples:64 ~stride:17 ]

(* [Driver.add_hooks] from inside a hook is refused (live frames would
   not see the new configuration) and leaves the driver as it was;
   between runs it works.  Both engines behave alike. *)
let test_add_hooks_between_runs_only () =
  let run engine =
    let st = Machine.create ~seed:3 (tiny_program ()) in
    let driver = ref None and outcome = ref "not tried" and entries = ref 0 in
    let counting =
      { Interp.no_hooks with on_entry = Some (fun _ _ -> incr entries) }
    in
    let probe =
      {
        Interp.no_hooks with
        on_entry =
          Some
            (fun _ _ ->
              match (!driver, !outcome) with
              | Some d, "not tried" -> (
                  match Driver.add_hooks d counting with
                  | () -> outcome := "added"
                  | exception Invalid_argument _ -> outcome := "raised")
              | _ -> ());
      }
    in
    let d =
      Driver.create ~extra_hooks:probe { Driver.default_options with engine } st
    in
    driver := Some d;
    let r1 = Driver.run d in
    let refused = (!outcome, !entries) in
    Driver.add_hooks d counting;
    let r2 = Driver.run d in
    (r1, r2, refused, !entries)
  in
  let ((_, _, refused, entries) as t) = run `Threaded in
  check Alcotest.(pair string int) "from a hook: raised, nothing added"
    ("raised", 0) refused;
  check cb "added between runs: fires" true (entries > 0);
  check cb "oracle alike" true (run `Oracle = t)

(* ------------------------- PIC tier ladder ------------------------- *)

(* A call site climbs mono -> poly -> megamorphic as the callee is
   recompiled under it: every [set_speed] bumps the callee's generation
   stamp, so the next dispatch through the site misses its cache.  Eight
   distinct generations flow through one site, the site's tier is
   observed at each rung, and a long stable megamorphic run earns the
   demotion back to monomorphic.  The oracle must agree bit-for-bit at
   every step. *)
let pic_program () =
  Compile.program ~name:"pic" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 40) [ set "s" (add (v "s") (call "f" [ v "k" ])) ];
          ret (v "s");
        ];
      mdef "f" ~params:[ "a" ] [ ret (add (mul (v "a") (i 3)) (i 1)) ];
    ]

let test_pic_tier_ladder () =
  let p = pic_program () in
  let st_o = Machine.create ~seed:3 p and st_t = Machine.create ~seed:3 p in
  let tel = Telemetry.create () in
  let eng = Codegen.create ~telemetry:tel st_t in
  let fidx = Machine.index st_t "f" in
  let agree label =
    let r_o = Interp.run Interp.no_hooks st_o in
    let r_t = Codegen.run eng in
    check ci (label ^ " result") r_o r_t;
    check ci (label ^ " cycles") st_o.Machine.cycles st_t.Machine.cycles
  in
  let bump pct =
    Machine.set_speed st_o fidx ~percent:pct;
    Machine.set_speed st_t fidx ~percent:pct
  in
  let tiers () = Codegen.ic_tiers eng "main" in
  agree "gen 1";
  check csl "fresh site is monomorphic" [ "mono" ] (tiers ());
  (* three more generations: the 4th mono miss promotes to poly *)
  for g = 2 to 4 do
    bump (100 + (10 * g));
    agree (Fmt.str "gen %d" g)
  done;
  check csl "4 mono misses promote to poly" [ "poly" ] (tiers ());
  (* four generations beyond the 4-way cache: promote to megamorphic *)
  for g = 5 to 8 do
    bump (100 + (10 * g));
    agree (Fmt.str "gen %d" g)
  done;
  check csl "4 poly misses promote to mega" [ "mega" ] (tiers ());
  (* no further recompiles: stable same-generation hits accumulate
     across runs until the demotion threshold *)
  agree "stable 1";
  agree "stable 2";
  check csl "stable megamorphic run demotes to mono" [ "mono" ] (tiers ());
  let m = Telemetry.metrics tel in
  let cval name = Metrics.value (Metrics.counter m name) in
  check cb "promote_poly counted" true (cval "engine.pic.promote_poly" >= 1);
  check cb "promote_mega counted" true (cval "engine.pic.promote_mega" >= 1);
  check cb "demote counted" true (cval "engine.pic.demote" >= 1)

(* ---------------------- superinstruction fusion ---------------------- *)

(* A program whose bytecode exercises the block-transfer patterns of the
   fusion catalog: the switch header ends [Load; Jmp] (ljmp), its
   compare chain is [Const; Cmp; Br] (kcmpbr), if-arm stores end
   [Store; Jmp] to the join (stjmp), and the for-latch is [Inc; Jmp]
   (incjmp).  Fused all-hot, the engine must stay bit-identical to the
   oracle, and the compiled tables must validate. *)
let fusion_program () =
  Compile.program ~name:"fuse" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 1);
          set "x" (i 3);
          for_ "k" (i 0) (i 60)
            [
              switch (v "x")
                [
                  (0, [ set "s" (add (v "s") (v "k")) ]);
                  (1, [ set "s" (bxor (v "s") (i 21)) ]);
                  (2, [ set "s" (add (v "s") (i 3)) ]);
                  (3, [ set "s" (sub (v "s") (i 1)) ]);
                ]
                [ set "s" (add (v "s") (i 7)) ];
              if_ (eq (band (v "k") (i 3)) (i 0))
                [ set "x" (add (v "x") (i 1)) ]
                [ set "x" (sub (v "x") (v "k")) ];
              set "x" (band (v "x") (i 7));
            ];
          set "s" (add (v "s") (v "x"));
          ret (v "s");
        ];
    ]

let all_hot_engine ?fuse st =
  let eng = Codegen.create ?fuse st in
  for midx = 0 to Program.n_methods st.Machine.program - 1 do
    let m = Program.method_of_index st.Machine.program midx in
    Codegen.set_hot_blocks eng midx
      (Array.make (Array.length m.Method.blocks) true)
  done;
  eng

let test_fusion_patterns_differential () =
  let p = fusion_program () in
  let st_o = Machine.create ~seed:3 p
  and st_f = Machine.create ~seed:3 p
  and st_n = Machine.create ~seed:3 p in
  let fused = all_hot_engine st_f in
  let nofuse = all_hot_engine ~fuse:false st_n in
  let r_o = Interp.run Interp.no_hooks st_o in
  let r_f = Codegen.run fused in
  let r_n = Codegen.run nofuse in
  check ci "fused result" r_o r_f;
  check ci "nofuse result" r_o r_n;
  check ci "fused cycles" st_o.Machine.cycles st_f.Machine.cycles;
  check ci "nofuse cycles" st_o.Machine.cycles st_n.Machine.cycles;
  (* the compiled tables really contain the block-transfer patterns *)
  let names =
    List.concat_map
      (fun midx ->
        List.map
          (fun (e : Fusion.entry) -> Fusion.pattern_name e.Fusion.fpattern)
          (Codegen.fused_entries fused midx))
      (List.init (Program.n_methods p) Fun.id)
  in
  List.iter
    (fun pat ->
      check cb (pat ^ " compiled") true (List.mem pat names))
    [ "kcmpbr-eq"; "ljmp"; "stjmp"; "incjmp" ];
  check cb "nothing fused with the tier off" true
    (List.for_all
       (fun midx -> Codegen.fused_entries nofuse midx = [])
       (List.init (Program.n_methods p) Fun.id));
  (* every planned table passes the independent validator *)
  Program.iter_methods
    (fun midx m ->
      let witness = Codegen.fusion_witness fused midx in
      match Pep_check.errors (Pep_check.validate_fusion ~witness m) with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s: fusion table rejected: %a" m.Method.name
            Pep_check.pp_diagnostic d)
    p

(* ------------------------- allocation tests ------------------------- *)

let calls_program ~argc =
  let params = List.init argc (fun j -> Fmt.str "p%d" j) in
  let args k = List.init argc (fun j -> add k (i j)) in
  Compile.program ~name:"alloc" ~main:"main"
    [
      mdef "main" ~params:[]
        [
          set "s" (i 0);
          for_ "k" (i 0) (i 1000) [ set "s" (call "leaf" (args (v "k"))) ];
          ret (v "s");
        ];
      mdef "leaf" ~params
        [ ret (List.fold_left (fun acc q -> add acc (v q)) (i 0) params) ];
    ]

(* The oracle allocates a locals array per invocation (inherent to the
   reference semantics) but must not also copy the arguments: growing a
   callee from 2 to 10 parameters adds 8 words of locals per call, and
   with an [Array.sub] per call it would add ~16.  Bound the growth
   strictly under the with-copy slope. *)
let oracle_words_per_call argc =
  let st = Machine.create ~seed:1 (calls_program ~argc) in
  ignore (Interp.run Interp.no_hooks st);
  let st = Machine.create ~seed:1 (calls_program ~argc) in
  let w0 = Gc.minor_words () in
  ignore (Interp.run Interp.no_hooks st);
  (Gc.minor_words () -. w0) /. 1000.

let test_oracle_no_arg_copy () =
  let slope = oracle_words_per_call 10 -. oracle_words_per_call 2 in
  check cb
    (Fmt.str "oracle per-call allocation slope %.1f words < 12" slope)
    true
    (slope < 12.0)

let test_threaded_steady_state_alloc_free () =
  let st = Machine.create ~seed:1 (calls_program ~argc:6) in
  let eng = Codegen.create st in
  ignore (Codegen.run eng) (* warm-up: translation + pool growth *);
  let w0 = Gc.minor_words () in
  ignore (Codegen.run eng);
  let words = Gc.minor_words () -. w0 in
  check cb
    (Fmt.str "threaded steady-state allocation %.0f words < 256" words)
    true (words < 256.0)

let suite =
  List.map
    (fun name ->
      Alcotest.test_case ("differential: " ^ name) `Quick (diff_workload name))
    Suite.names
  @ [
      Alcotest.test_case "differential: adaptive promotion" `Quick
        test_adaptive_differential;
      Alcotest.test_case "differential: inline+unroll" `Quick
        test_transform_differential;
      Alcotest.test_case "differential: PEP + perfect path composed" `Quick
        test_composed_truth_differential;
      Alcotest.test_case "differential: plan replaced under a live frame"
        `Quick test_live_reinstrumentation;
      Alcotest.test_case "baked layer matches its closure form" `Quick
        test_baked_layer_matches_closures;
      Alcotest.test_case "differential: plan installed, warm inline cache"
        `Quick test_install_warm_ic;
      Alcotest.test_case "differential: plan installed under live recursion"
        `Quick test_install_live_recursion;
      Alcotest.test_case "differential: layer swapped between runs" `Quick
        test_layer_swap;
      Alcotest.test_case "path-end gate: fewer handler calls, same output"
        `Quick test_path_end_gate;
      Alcotest.test_case "Driver.add_hooks: between runs only" `Quick
        test_add_hooks_between_runs_only;
      Alcotest.test_case "engine matches oracle (tiny)" `Quick
        test_engine_matches_oracle;
      Alcotest.test_case "set_speed invalidates inline caches" `Quick
        test_set_speed_invalidates;
      Alcotest.test_case "recompile invalidates inline caches" `Quick
        test_recompile_invalidates;
      Alcotest.test_case "hook event parity" `Quick test_hook_parity;
      Alcotest.test_case "hook respecialization" `Quick test_hook_switch;
      Alcotest.test_case "PIC tier ladder (mono/poly/mega/demote)" `Quick
        test_pic_tier_ladder;
      Alcotest.test_case "fusion patterns differential" `Quick
        test_fusion_patterns_differential;
      Alcotest.test_case "oracle: no per-call argument copy" `Quick
        test_oracle_no_arg_copy;
      Alcotest.test_case "threaded: steady state allocation-free" `Quick
        test_threaded_steady_state_alloc_free;
    ]
