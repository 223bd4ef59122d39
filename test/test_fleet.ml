(* The fleet service, locked down the same way the experiment pool is:

   - determinism: a collector run at jobs=1 and jobs=4 produces
     byte-identical segment files, and identical query output (top,
     folded, diff) — and a warm rerun simulates nothing and leaves the
     store untouched;
   - the segment codec: save/load round-trips arbitrary segments
     (QCheck), a flipped byte is rejected by the digest before any row
     is believed, a forged future version and junk files come back as
     structured diagnostics;
   - compaction and retention: merge sums rows and spans windows,
     compact leaves exactly one merged segment per (cohort, window),
     retain drops the oldest windows;
   - triage golden: on the seeded drifting cohort the diff flags a new
     hot path in worker_b, the dispatch edge-flow shift and leaf's
     caller change; the steady control reports nothing. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let csl = Alcotest.(list string)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    let f = Filename.temp_file "pepsim-fleet" "" in
    Sys.remove f;
    incr n;
    f ^ ".d" ^ string_of_int !n

let read_all file = In_channel.with_open_bin file In_channel.input_all
let write_all file s = Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s)

(* One small collector spec shared by the whole suite; every run of it
   must be bit-identical, so tests can compare stores freely. *)
let spec =
  Fleet_collector.default_spec ~size:150 ~seed:21 ~instances:2 ~windows:4
    Phased.drift

let store_fingerprint dir =
  List.sort compare
    (List.filter_map
       (fun f ->
         if Filename.check_suffix f ".seg" then
           Some (f, Digest.to_hex (Digest.string (read_all (Filename.concat dir f))))
         else None)
       (Array.to_list (Sys.readdir dir)))

let run_ok ?jobs dir =
  match Fleet_collector.run ?jobs ~dir spec with
  | Ok r -> r
  | Error e -> Alcotest.failf "fleet run: %a" Dcg.pp_parse_error e

let segments_of dir =
  let segs, diags = Fleet_store.load_all ~dir in
  List.iter (fun e -> Alcotest.failf "load_all: %a" Dcg.pp_parse_error e) diags;
  segs

(* ------------------- determinism & warm skip ---------------------- *)

let query_repr dir =
  let segs = segments_of dir in
  let shift = Fleet_query.select segs { Fleet_query.any with cohort = Some "shift" } in
  let top k = List.map (fun (l, s) -> Fmt.str "%s=%h" l s) (Fleet_query.top ~n:10 k segs) in
  let folded = Folded.to_lines (Fleet_query.folded `Paths (Fleet_query.view shift)) in
  let diff =
    Fleet_query.diff
      ~baseline:(Fleet_query.view (Fleet_query.select segs
        { Fleet_query.cohort = Some "shift"; lo = None; hi = Some 1 }))
      ~current:(Fleet_query.view (Fleet_query.select segs
        { Fleet_query.cohort = Some "shift"; lo = Some 2; hi = None }))
      ()
  in
  top `Paths @ top `Edges @ top `Dcg @ folded
  @ List.map Fleet_query.render_finding diff

let test_jobs_deterministic () =
  let d1 = fresh_dir () and d4 = fresh_dir () in
  let r1 = run_ok ~jobs:1 d1 and r4 = run_ok ~jobs:4 d4 in
  check ci "simulated" r1.Fleet_collector.simulated r4.Fleet_collector.simulated;
  check ci "snapshots" r1.Fleet_collector.snapshots r4.Fleet_collector.snapshots;
  check ci "samples" r1.Fleet_collector.samples_taken r4.Fleet_collector.samples_taken;
  Alcotest.(check (list (pair string string)))
    "segment files byte-identical" (store_fingerprint d1) (store_fingerprint d4);
  check csl "query output identical" (query_repr d1) (query_repr d4)

let test_warm_rerun () =
  let dir = fresh_dir () in
  let cold = run_ok dir in
  check cb "cold simulated" true (cold.Fleet_collector.simulated > 0);
  let before = store_fingerprint dir in
  let warm = run_ok ~jobs:3 dir in
  check ci "warm simulated" 0 warm.Fleet_collector.simulated;
  check ci "warm skipped"
    (cold.Fleet_collector.cohorts * spec.Fleet_collector.instances)
    warm.Fleet_collector.skipped;
  check ci "warm snapshots" 0 warm.Fleet_collector.snapshots;
  Alcotest.(check (list (pair string string)))
    "store untouched" before (store_fingerprint dir)

(* --------------------------- triage golden ------------------------ *)

let diff_of dir ~cohort =
  let segs = segments_of dir in
  Fleet_query.diff
    ~baseline:(Fleet_query.view (Fleet_query.select segs
      { Fleet_query.cohort = Some cohort; lo = None; hi = Some 1 }))
    ~current:(Fleet_query.view (Fleet_query.select segs
      { Fleet_query.cohort = Some cohort; lo = Some 2; hi = None }))
    ()

let shared_dir = lazy (let d = fresh_dir () in ignore (run_ok ~jobs:2 d); d)

let test_triage_drift () =
  let findings = diff_of (Lazy.force shared_dir) ~cohort:"shift" in
  let rendered = List.map Fleet_query.render_finding findings in
  let has prefix =
    check cb (Fmt.str "finding %s" prefix) true
      (List.exists
         (fun r -> String.length r >= String.length prefix
                   && String.sub r 0 (String.length prefix) = prefix)
         rendered)
  in
  (* the phase shift moves dispatch toward worker_b: its new paths get
     hot, dispatch's branch bias flips, and leaf's dominant caller
     moves — all three rule families must fire *)
  has "new-hot-path worker_b/path#";
  has "edge-shift dispatch/br#0";
  has "caller-change leaf: worker_a -> worker_b";
  (* and they are all the drift explains: nothing else regresses *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun r ->
      check cb (Fmt.str "finding %s names worker_b, dispatch or leaf" r) true
        (List.exists (contains r) [ "worker_b"; "dispatch"; "leaf" ]))
    rendered

let test_triage_steady_clean () =
  check ci "steady findings" 0
    (List.length (diff_of (Lazy.force shared_dir) ~cohort:"steady"))

(* ------------------------ segment codec --------------------------- *)

let seg ~cohort_name ~window ~origin rows =
  {
    Fleet_store.cohort =
      {
        Fleet.Cohort.name = cohort_name;
        workload = "drift";
        size = 10;
        seed = 7;
        config_key = "cfg";
        drift = Fleet.Drift.No_drift;
      };
    window = Fleet.Window.raw ~index:window ~start_cycle:(window * 100)
        ~end_cycle:((window + 1) * 100);
    origin;
    instances = 1;
    samples = List.length rows;
    methods = [| "alpha"; "beta" |];
    paths = rows;
    edges = List.map (fun (a, b, c) -> (a, b, c, c + 1)) rows;
    dcg = (if rows = [] then [] else [ (-1, 0, 5); (0, 1, 3) ]);
  }

let test_segment_roundtrip () =
  let dir = fresh_dir () in
  (match Fleet_store.open_ dir with
  | Ok r -> check ci "clean open heals nothing" 0 r.Fleet_store.healed
  | Error e -> Alcotest.failf "open: %a" Dcg.pp_parse_error e);
  let s = seg ~cohort_name:"a" ~window:2 ~origin:3 [ (0, 1, 42); (1, 9, 7) ] in
  (match Fleet_store.save ~dir s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %a" Dcg.pp_parse_error e);
  match segments_of dir with
  | [ s' ] -> check cb "roundtrip equal" true (s = s')
  | l -> Alcotest.failf "expected 1 segment, got %d" (List.length l)

let test_segment_tamper_rejected () =
  let dir = fresh_dir () in
  ignore (Fleet_store.open_ dir);
  let s = seg ~cohort_name:"a" ~window:0 ~origin:0 [ (0, 3, 9) ] in
  ignore (Fleet_store.save ~dir s);
  let file = Fleet_store.filename ~dir s in
  let bytes = read_all file in
  let i = String.length bytes / 2 in
  let flipped = Bytes.of_string bytes in
  Bytes.set flipped i (Char.chr (Char.code bytes.[i] lxor 1));
  write_all file (Bytes.to_string flipped);
  let segs, diags = Fleet_store.load_all ~dir in
  check ci "no segment believed" 0 (List.length segs);
  check ci "one diagnostic" 1 (List.length diags)

let test_segment_junk_rejected () =
  let dir = fresh_dir () in
  ignore (Fleet_store.open_ dir);
  write_all (Filename.concat dir "junk.seg") "not a segment at all";
  let segs, diags = Fleet_store.load_all ~dir in
  check ci "no segment" 0 (List.length segs);
  check ci "diagnostic" 1 (List.length diags)

let gen_segment =
  let open QCheck in
  (* segment fields must be newline-free (the store refuses them) *)
  let str =
    map
      (String.map (fun c -> if c = '\n' then '_' else c))
      (string_gen_of_size (Gen.int_range 0 12) Gen.printable)
  in
  let rows3 = small_list (triple small_nat small_nat small_nat) in
  let rows4 =
    small_list (quad small_nat small_nat small_nat small_nat)
  in
  quad str (small_list str) rows3 rows4

let prop_segment_codec =
  QCheck.Test.make ~count:100 ~name:"segment codec: save/load = id, tamper rejected"
    gen_segment (fun (name, methods, rows3, rows4) ->
      let dir = fresh_dir () in
      ignore (Fleet_store.open_ dir);
      let s =
        {
          Fleet_store.cohort =
            {
              Fleet.Cohort.name = "c|" ^ name;
              workload = name;
              size = 3;
              seed = 1;
              config_key = "k=" ^ name;
              drift = Fleet.Drift.Phase_shift { at_window = 1; phase = 2 };
            };
          window = Fleet.Window.raw ~index:1 ~start_cycle:0 ~end_cycle:9;
          origin = 0;
          instances = 1;
          samples = List.length rows3;
          methods = Array.of_list methods;
          paths = rows3;
          edges = rows4;
          dcg = List.map (fun (a, b, c) -> (a - 1, b, c)) rows3;
        }
      in
      match Fleet_store.save ~dir s with
      | Error e -> QCheck.Test.fail_reportf "save: %a" Dcg.pp_parse_error e
      | Ok () -> (
          let file = Fleet_store.filename ~dir s in
          let bytes = read_all file in
          match Fleet_store.decode ~file bytes with
          | Error e ->
              QCheck.Test.fail_reportf "decode: %a" Dcg.pp_parse_error e
          | Ok s' ->
              if s <> s' then QCheck.Test.fail_report "roundtrip mismatch";
              let i = String.length bytes / 2 in
              let t = Bytes.of_string bytes in
              Bytes.set t i (Char.chr (Char.code bytes.[i] lxor (1 lsl (i mod 8))));
              if Bytes.to_string t = bytes then true
              else
                match Fleet_store.decode ~file (Bytes.to_string t) with
                | Ok _ -> QCheck.Test.fail_report "tampered bytes accepted"
                | Error _ -> true))

(* --------------------- merge / compact / retain ------------------- *)

let test_merge_sums () =
  let a = seg ~cohort_name:"m" ~window:0 ~origin:0 [ (0, 1, 10) ] in
  let b = seg ~cohort_name:"m" ~window:1 ~origin:1 [ (0, 1, 5); (1, 2, 2) ] in
  let m = Fleet_store.merge [ a; b ] in
  check ci "origin" (-1) m.Fleet_store.origin;
  check ci "instances summed" 2 m.Fleet_store.instances;
  check ci "window lo" 0 m.Fleet_store.window.Fleet.Window.lo;
  check ci "window hi" 1 m.Fleet_store.window.Fleet.Window.hi;
  check cb "paths summed" true
    (List.mem (0, 1, 15) m.Fleet_store.paths
     && List.mem (1, 2, 2) m.Fleet_store.paths);
  check cb "mixed cohorts rejected" true
    (try
       ignore (Fleet_store.merge [ a; seg ~cohort_name:"x" ~window:0 ~origin:0 [] ]);
       false
     with Invalid_argument _ -> true)

let test_compact_and_retain () =
  let dir = fresh_dir () in
  ignore (Fleet_store.open_ dir);
  List.iter
    (fun s -> match Fleet_store.save ~dir s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %a" Dcg.pp_parse_error e)
    [
      seg ~cohort_name:"c" ~window:0 ~origin:0 [ (0, 1, 1) ];
      seg ~cohort_name:"c" ~window:0 ~origin:1 [ (0, 1, 2) ];
      seg ~cohort_name:"c" ~window:1 ~origin:0 [ (0, 1, 4) ];
      seg ~cohort_name:"c" ~window:1 ~origin:1 [ (0, 1, 8) ];
    ];
  let written, deleted, errs = Fleet_store.compact ~dir in
  check ci "no errors" 0 (List.length errs);
  check ci "merged written" 2 written;
  check ci "raws deleted" 4 deleted;
  let segs = segments_of dir in
  check ci "two merged remain" 2 (List.length segs);
  List.iter
    (fun (s : Fleet_store.segment) ->
      check ci "merged origin" (-1) s.Fleet_store.origin;
      check ci "merged instances" 2 s.Fleet_store.instances)
    segs;
  (* retention: keep only the newest window *)
  check ci "retain deletes" 1 (Fleet_store.retain ~dir ~max_windows:1);
  match segments_of dir with
  | [ s ] -> check ci "newest kept" 1 s.Fleet_store.window.Fleet.Window.lo
  | l -> Alcotest.failf "expected 1 segment, got %d" (List.length l)

let test_select_prefers_merged () =
  let raw = seg ~cohort_name:"c" ~window:0 ~origin:0 [ (0, 1, 1) ] in
  let merged = { (Fleet_store.merge [ raw ]) with Fleet_store.instances = 2 } in
  let picked = Fleet_query.select [ raw; merged ] Fleet_query.any in
  check ci "raw shadowed" 1 (List.length picked);
  check ci "merged picked" (-1) (List.hd picked).Fleet_store.origin

(* --------------------- fault tolerance & healing ------------------ *)

(* The tentpole invariant, byte-level: any converging fault plan's
   store must fingerprint identically to the healthy shared run, and
   every injection must be accounted. *)

let healthy_fp = lazy (store_fingerprint (Lazy.force shared_dir))

let run_faulted ?jobs ~faults dir =
  let spec = { spec with Fleet_collector.faults = Fault_plan.parse_exn faults } in
  match Fleet_collector.run ?jobs ~dir spec with
  | Ok r -> r
  | Error e -> Alcotest.failf "faulted fleet run: %a" Dcg.pp_parse_error e

let counts_of (r : Fleet_collector.report) =
  match r.Fleet_collector.counts with
  | Some c -> c
  | None -> Alcotest.fail "active plan reported no fault accounting"

let check_accounted c =
  match Fault_injector.accounted c with
  | Ok () -> ()
  | Error m -> Alcotest.failf "unaccounted degradation: %s" m

let check_identical what dir =
  Alcotest.(check (list (pair string string)))
    what (Lazy.force healthy_fp) (store_fingerprint dir)

let test_noop_plan_identity () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"noop" dir in
  let c = counts_of r in
  check ci "no crashes" 0 c.Fault_injector.instance_crash;
  check ci "no torn writes" 0 c.Fault_injector.torn_write;
  check ci "no stragglers" 0 c.Fault_injector.straggler;
  check ci "no corruption" 0 c.Fault_injector.seg_corrupt;
  check ci "nothing degraded" 0 (List.length r.Fleet_collector.degraded);
  check_identical "noop store byte-identical" dir

let test_crash_restart_converges () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"seed=11,crash=0.3,crash-restarts=10" dir in
  let c = counts_of r in
  check_accounted c;
  check cb "crashes fired" true (c.Fault_injector.instance_crash > 0);
  check ci "every crash restarted" c.Fault_injector.instance_crash
    c.Fault_injector.restarts;
  check ci "no instance lost" 0 c.Fault_injector.lost_instances;
  check_identical "crashed store byte-identical" dir

let test_torn_write_heals () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"seed=23,torn-write=0.6,seg-retries=4" dir in
  let c = counts_of r in
  check_accounted c;
  check cb "torn writes fired" true (c.Fault_injector.torn_write > 0);
  check ci "every torn write recovered" c.Fault_injector.torn_write
    c.Fault_injector.writes_recovered;
  check cb "rebuilds recorded" true
    (List.exists (fun (_, _, reason) -> reason = "rebuilt")
       r.Fleet_collector.degraded);
  check_identical "torn store byte-identical" dir

let test_seg_corrupt_quarantines () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"seed=47,seg-corrupt=0.5,seg-retries=4" dir in
  let c = counts_of r in
  check_accounted c;
  check cb "corruption fired" true (c.Fault_injector.seg_corrupt > 0);
  check ci "every flip quarantined" c.Fault_injector.seg_corrupt
    c.Fault_injector.seg_quarantined;
  check cb "quarantine evidence kept" true
    (List.exists
       (fun f -> Filename.check_suffix f ".quarantined")
       (Array.to_list (Sys.readdir dir)));
  check_identical "quarantined store byte-identical" dir

let test_straggler_catches_up () =
  let dir = fresh_dir () in
  let r =
    run_faulted ~faults:"seed=31,straggler=0.7,straggler-timeout=3" dir
  in
  let c = counts_of r in
  check_accounted c;
  check cb "stragglers fired" true (c.Fault_injector.straggler > 0);
  check ci "every straggler caught up" c.Fault_injector.straggler
    c.Fault_injector.catchups;
  check ci "nothing degraded" 0 (List.length r.Fleet_collector.degraded);
  check_identical "straggling store byte-identical" dir

let test_doomed_loses_then_heals () =
  let dir = fresh_dir () in
  let r = run_faulted ~faults:"seed=3,crash=1,crash-restarts=0" dir in
  let c = counts_of r in
  check_accounted c;
  check ci "every instance lost"
    (r.Fleet_collector.cohorts * spec.Fleet_collector.instances)
    c.Fault_injector.lost_instances;
  check ci "no segments survive" 0 (List.length (segments_of dir));
  let lost =
    List.filter (fun (_, _, reason) -> reason = "lost")
      r.Fleet_collector.degraded
  in
  check ci "every window accounted lost"
    (r.Fleet_collector.cohorts * spec.Fleet_collector.windows)
    (List.length lost);
  (* one clean rerun re-collects the lost windows to the healthy bytes,
     and the loss history stays in the sidecar *)
  ignore (run_ok dir);
  check_identical "healed store byte-identical" dir;
  check cb "loss history preserved" true
    (List.exists (fun (_, _, reason) -> reason = "lost")
       (Fleet_store.load_degraded ~dir))

let test_jobs_identity_under_faults () =
  let faults =
    "seed=13,crash=0.2,crash-restarts=10,torn-write=0.3,straggler=0.3,\
     seg-corrupt=0.2"
  in
  let d1 = fresh_dir () and d4 = fresh_dir () in
  let r1 = run_faulted ~jobs:1 ~faults d1 in
  let r4 = run_faulted ~jobs:4 ~faults d4 in
  check cb "faults fired" true
    ((counts_of r1).Fault_injector.instance_crash
     + (counts_of r1).Fault_injector.torn_write
     + (counts_of r1).Fault_injector.straggler
     + (counts_of r1).Fault_injector.seg_corrupt
     > 0);
  check cb "identical accounting" true (counts_of r1 = counts_of r4);
  Alcotest.(check (list (pair string string)))
    "identical stores under injection" (store_fingerprint d1)
    (store_fingerprint d4)

(* Crash consistency, property-style: copy the healthy store, damage
   one segment at an arbitrary byte offset (torn prefix or flipped
   byte, with or without a forged journal intent for it), reopen and
   re-run — the store must converge back to the healthy bytes. *)
let prop_crash_consistency =
  QCheck.Test.make ~count:15
    ~name:"crash consistency: damaged store heals byte-for-byte"
    QCheck.(quad small_nat small_nat bool bool)
    (fun (vi, off, flip, forge) ->
      let healthy = Lazy.force shared_dir in
      let fp = Lazy.force healthy_fp in
      let dir = fresh_dir () in
      ignore (Fleet_store.open_ dir);
      List.iter
        (fun (f, _) ->
          write_all (Filename.concat dir f)
            (read_all (Filename.concat healthy f)))
        fp;
      let victim, _ = List.nth fp (vi mod List.length fp) in
      let path = Filename.concat dir victim in
      let bytes = read_all path in
      let len = String.length bytes in
      (if flip then begin
         let i = off mod len in
         let b = Bytes.of_string bytes in
         Bytes.set b i (Char.chr (Char.code bytes.[i] lxor 0x55));
         write_all path (Bytes.to_string b)
       end
       else write_all path (String.sub bytes 0 (1 + (off mod (len - 1)))));
      if forge then
        (* a crash between rename and commit: intent without commit *)
        Out_channel.with_open_gen
          [ Open_append; Open_creat; Open_binary ]
          0o644
          (Filename.concat dir "fleet.journal")
          (fun oc ->
            Out_channel.output_string oc
              ("W " ^ victim ^ " "
              ^ Digest.to_hex (Digest.string bytes)
              ^ "\n"));
      ignore (run_ok dir);
      if store_fingerprint dir <> fp then
        QCheck.Test.fail_report "damaged store did not converge"
      else true)

let test_fleet_chaos_mini () =
  let dir = fresh_dir () in
  let cases =
    [
      Fleet_chaos.case "noop" "noop" true;
      Fleet_chaos.case "doomed" "seed=3,crash=1,crash-restarts=0" false;
    ]
  in
  let reports = Fleet_chaos.sweep ~jobs:2 ~cases ~dir spec in
  check ci "two reports" 2 (List.length reports);
  List.iter
    (fun (r : Fleet_chaos.report) ->
      check csl (r.Fleet_chaos.flabel ^ " clean") [] r.Fleet_chaos.violations)
    reports

(* ------------------------------ watch ----------------------------- *)

let wseg ~window rows = seg ~cohort_name:"w" ~window ~origin:0 rows
let base_rows = [ (0, 1, 100) ]
let hot_rows = [ (0, 1, 100); (1, 7, 50) ]

let watch_rule ?(persist = 2) () =
  {
    Fleet_watch.name = "hot";
    cohort = Some "w";
    families = [ Fleet_watch.New_hot_path ];
    persist;
    min_share = None;
    min_shift = None;
  }

let run_watch ?persist ?(degraded = []) windows =
  Fleet_watch.run
    ~rules:[ watch_rule ?persist () ]
    ~degraded
    (List.mapi (fun i rows -> wseg ~window:i rows) windows)

let test_watch_fires_once_then_dedups () =
  let r = run_watch [ base_rows; hot_rows; hot_rows; hot_rows ] in
  (match r.Fleet_watch.alerts with
  | [ a ] ->
      check ci "fires at the second hot window" 2 a.Fleet_watch.window;
      check ci "after a 2-window streak" 2 a.Fleet_watch.streak;
      check cb "not degraded" false a.Fleet_watch.degraded;
      check cb "renders as an ALERT line" true
        (String.length (Fleet_watch.render_alert a) > 0
        && String.sub (Fleet_watch.render_alert a) 0 15 = "ALERT rule=hot ")
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l));
  check ci "third hot window deduped" 1 r.Fleet_watch.deduped;
  check ci "no flaps" 0 r.Fleet_watch.flapped

let test_watch_flap_suppressed () =
  let r = run_watch [ base_rows; hot_rows; base_rows; hot_rows ] in
  check ci "no alert from a broken streak" 0
    (List.length r.Fleet_watch.alerts);
  check ci "the break is counted as a flap" 1 r.Fleet_watch.flapped

let test_watch_persist_one_is_immediate () =
  let r = run_watch ~persist:1 [ base_rows; hot_rows ] in
  check ci "fires on first sight" 1 (List.length r.Fleet_watch.alerts)

let test_watch_degraded_annotation () =
  let degraded = [ ("w", 2, "rebuilt") ] in
  let r = run_watch ~degraded [ base_rows; hot_rows; hot_rows ] in
  (match r.Fleet_watch.alerts with
  | [ a ] -> check cb "degraded-data flagged" true a.Fleet_watch.degraded
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l));
  (* a degraded baseline window taints every alert of the cohort *)
  let r2 =
    run_watch ~degraded:[ ("w", 0, "lost") ] [ base_rows; hot_rows; hot_rows ]
  in
  match r2.Fleet_watch.alerts with
  | [ a ] -> check cb "degraded baseline flagged" true a.Fleet_watch.degraded
  | l -> Alcotest.failf "expected 1 alert, got %d" (List.length l)

let test_watch_rule_grammar () =
  let line = "hot cohort=shift family=new-hot-path,edge-shift persist=3 min-share=0.05" in
  (match Fleet_watch.parse_rule line with
  | Error m -> Alcotest.failf "parse_rule: %s" m
  | Ok r ->
      check Alcotest.string "round-trips" line (Fleet_watch.rule_to_line r);
      check cb "families parsed" true
        (r.Fleet_watch.families
        = [ Fleet_watch.New_hot_path; Fleet_watch.Edge_shift ]));
  List.iter
    (fun bad ->
      check cb (Fmt.str "rejects %S" bad) true
        (Result.is_error (Fleet_watch.parse_rule bad)))
    [ ""; "cohort=c"; "x persist=0"; "x family=bogus"; "x frob"; "x min-share=2" ];
  match Fleet_watch.parse_rules "# standing rules\nhot cohort=w persist=2\n\ndrift\n" with
  | Ok [ _; _ ] -> ()
  | Ok l -> Alcotest.failf "expected 2 rules, got %d" (List.length l)
  | Error m -> Alcotest.failf "parse_rules: %s" m

(* ----------------------------- suite ------------------------------ *)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "jobs 1 = jobs 4 (segments + queries)" `Slow
      test_jobs_deterministic;
    Alcotest.test_case "warm rerun simulates nothing" `Slow test_warm_rerun;
    Alcotest.test_case "triage flags the drifting cohort" `Slow
      test_triage_drift;
    Alcotest.test_case "triage is silent on the steady cohort" `Slow
      test_triage_steady_clean;
    Alcotest.test_case "segment save/load roundtrip" `Quick
      test_segment_roundtrip;
    Alcotest.test_case "flipped byte rejected by digest" `Quick
      test_segment_tamper_rejected;
    Alcotest.test_case "junk segment file is a diagnostic" `Quick
      test_segment_junk_rejected;
    qcheck prop_segment_codec;
    Alcotest.test_case "merge sums rows and spans windows" `Quick
      test_merge_sums;
    Alcotest.test_case "compact then retain" `Quick test_compact_and_retain;
    Alcotest.test_case "query prefers merged segments" `Quick
      test_select_prefers_merged;
    Alcotest.test_case "noop fault plan is byte-identical" `Slow
      test_noop_plan_identity;
    Alcotest.test_case "crash + restart converges" `Slow
      test_crash_restart_converges;
    Alcotest.test_case "torn writes heal" `Slow test_torn_write_heals;
    Alcotest.test_case "corrupt segments quarantine + rebuild" `Slow
      test_seg_corrupt_quarantines;
    Alcotest.test_case "stragglers catch up" `Slow test_straggler_catches_up;
    Alcotest.test_case "doomed plan loses, clean rerun heals" `Slow
      test_doomed_loses_then_heals;
    Alcotest.test_case "jobs 1 = jobs 4 under injection" `Slow
      test_jobs_identity_under_faults;
    qcheck prop_crash_consistency;
    Alcotest.test_case "fleet chaos mini sweep" `Slow test_fleet_chaos_mini;
    Alcotest.test_case "watch fires once then dedups" `Quick
      test_watch_fires_once_then_dedups;
    Alcotest.test_case "watch suppresses flaps" `Quick
      test_watch_flap_suppressed;
    Alcotest.test_case "watch persist=1 fires immediately" `Quick
      test_watch_persist_one_is_immediate;
    Alcotest.test_case "watch annotates degraded data" `Quick
      test_watch_degraded_annotation;
    Alcotest.test_case "watch rule grammar round-trips" `Quick
      test_watch_rule_grammar;
  ]
