(* The experiment pool and the persistent run cache, locked down by a
   differential layer:

   - determinism: every figure built through the pool (jobs=1, jobs=4,
     cold on-disk cache, warm on-disk cache) is bit-identical — float
     bits, not tolerances — to the serial on-demand build, and so is
     every cached run's measurement;
   - robustness: truncated, bit-flipped, wrong-version, old text-format
     and stale-keyed store entries are recomputed and overwritten with
     a structured diagnostic, never trusted and never crashed on; a
     digest-valid tamper is caught by the re-lint;
   - the memoization contract: a config runs exactly once per cache,
     disk hits included;
   - config_key injectivity over randomized configurations, and the
     store's save/load round-trip (QCheck). *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cs = Alcotest.string
let csl = Alcotest.(list string)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    (* unique, not yet existing: Exp_store creates it on first save *)
    let f = Filename.temp_file "pepsim-cache" "" in
    Sys.remove f;
    incr n;
    f ^ ".d" ^ string_of_int !n

let check_meas msg (a : Exp_harness.measurement) (b : Exp_harness.measurement) =
  check ci (msg ^ ": iter1") a.iter1 b.iter1;
  check ci (msg ^ ": iter2") a.iter2 b.iter2;
  check ci (msg ^ ": compile") a.compile b.compile;
  check ci (msg ^ ": checksum") a.checksum b.checksum

(* ------------------- differential determinism ------------------- *)

let envs =
  lazy
    (List.map
       (fun name -> Exp_harness.make_env ~seed:21 ~size:30 (Suite.find name))
       [ "compress"; "javac" ])

let fresh_caches ?cache_dir () =
  List.map (fun env -> Exp_cache.create ?cache_dir env) (Lazy.force envs)

(* floats replaced by their bit patterns: comparison means bit-identity *)
let figure_repr (f : Exp_figures.figure) =
  ( (f.Exp_figures.id, f.title, f.unit_, f.header, f.paper),
    List.map (fun (n, vs) -> (n, List.map Int64.bits_of_float vs)) f.rows,
    List.map (fun (n, v) -> (n, Int64.bits_of_float v)) f.summary )

let sweep ?cache_dir ~prefetch ~jobs () =
  let caches = fresh_caches ?cache_dir () in
  if prefetch then Exp_pool.prefetch ~jobs caches Exp_figures.ids;
  let figs =
    List.map (fun id -> figure_repr (Exp_figures.by_id id caches)) Exp_figures.ids
  in
  (caches, figs)

let check_same_runs msg base caches =
  List.iter2
    (fun c c' ->
      let runs = Exp_cache.all_runs c and runs' = Exp_cache.all_runs c' in
      check csl (msg ^ ": run keys") (List.map fst runs) (List.map fst runs');
      List.iter2
        (fun (k, (r : Exp_harness.run)) (_, (r' : Exp_harness.run)) ->
          check_meas (Printf.sprintf "%s: %s" msg k) r.meas r'.meas)
        runs runs')
    base caches

let check_figs msg base figs =
  List.iter2
    (fun f f' ->
      let ((id, _, _, _, _), _, _) = f in
      check cb (Printf.sprintf "%s: figure %s bit-identical" msg id) true
        (f = f'))
    base figs

let test_pool_differential () =
  (* the serial seed behaviour: figures on demand, no pool, no disk *)
  let base_caches, base_figs = sweep ~prefetch:false ~jobs:1 () in
  let dir = fresh_dir () in
  (* sequenced lets: the cold sweep must populate [dir] before the warm one *)
  let v1 = sweep ~prefetch:true ~jobs:1 () in
  let v4 = sweep ~prefetch:true ~jobs:4 () in
  let vcold = sweep ~cache_dir:dir ~prefetch:true ~jobs:4 () in
  let vwarm = sweep ~cache_dir:dir ~prefetch:true ~jobs:4 () in
  let variants =
    [
      ("prefetch jobs=1", v1);
      ("prefetch jobs=4", v4);
      ("cold disk cache jobs=4", vcold);
      ("warm disk cache jobs=4", vwarm);
    ]
  in
  List.iter
    (fun (msg, (caches, figs)) ->
      check_figs msg base_figs figs;
      check_same_runs msg base_caches caches;
      List.iter
        (fun c ->
          List.iter
            (fun d ->
              Alcotest.failf "%s: unexpected store diagnostic: %s" msg
                d.Dcg.reason)
            (Exp_cache.diagnostics c))
        caches)
    variants;
  (* cold sweep executed everything, warm recalled everything: zero
     simulator executions on a warm cache *)
  let cold = fst (List.assoc "cold disk cache jobs=4" variants) in
  let warm = fst (List.assoc "warm disk cache jobs=4" variants) in
  List.iter
    (fun c ->
      let s = Exp_cache.stats c in
      check cb "cold: executed some" true (s.Exp_cache.executed > 0);
      check ci "cold: no disk hits" 0 s.Exp_cache.disk_hits;
      check ci "cold: no store errors" 0 s.Exp_cache.store_errors)
    cold;
  List.iter
    (fun c ->
      let s = Exp_cache.stats c in
      check ci "warm: zero executions" 0 s.Exp_cache.executed;
      check cb "warm: disk hits" true (s.Exp_cache.disk_hits > 0);
      check ci "warm: no store errors" 0 s.Exp_cache.store_errors)
    warm

let test_suite_envs_deterministic () =
  let envs jobs = Exp_pool.suite_envs ~scale:0.05 ~jobs ~seed:7 () in
  let repr (e : Exp_harness.env) =
    (e.workload.Workload.name, e.size, e.seed, Advice.to_lines e.advice)
  in
  check cb "suite_envs independent of jobs" true
    (List.map repr (envs 1) = List.map repr (envs 3))

(* ------------------- store robustness ------------------- *)

let rob_env =
  lazy (Exp_harness.make_env ~seed:33 ~size:20 (Suite.find "compress"))

let rob_config =
  {
    Exp_harness.default with
    Exp_harness.profiling =
      Exp_harness.Pep_profiled
        {
          sampling = Sampling.pep ~samples:64 ~stride:17;
          zero = `Hottest;
          numbering = `Smart;
        };
  }

(* run once against a fresh store, returning the run, its entry file
   and its composite identity key *)
let populate dir =
  let cache = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
  let run = Exp_cache.run cache rob_config in
  let file, key = Option.get (Exp_cache.store_slot cache rob_config) in
  check cb "entry persisted" true (Sys.file_exists file);
  (run, file, key)

let read_all file = In_channel.with_open_bin file In_channel.input_all

let write_all file contents =
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc contents)

let write_lines file lines =
  write_all file (String.concat "\n" lines ^ "\n")

let diag_mentions substring caches_diags =
  List.exists
    (fun d ->
      let reason = d.Dcg.reason in
      let n = String.length substring and l = String.length reason in
      let rec go i =
        i + n <= l && (String.sub reason i n = substring || go (i + 1))
      in
      go 0)
    caches_diags

(* corrupt the entry, rerun on a fresh cache: the run must be recomputed
   (identical measurement), with a diagnostic mentioning [expect] *)
let recompute_after ~expect corrupt =
  let dir = fresh_dir () in
  let orig, file, key = populate dir in
  corrupt file key;
  let cache = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
  let r = Exp_cache.run cache rob_config in
  check_meas ("recomputed after " ^ expect) orig.Exp_harness.meas
    r.Exp_harness.meas;
  let s = Exp_cache.stats cache in
  check ci "recomputed, not loaded" 1 s.Exp_cache.executed;
  check ci "no disk hit" 0 s.Exp_cache.disk_hits;
  check ci "one store error" 1 s.Exp_cache.store_errors;
  check cb
    (Printf.sprintf "diagnostic mentions %S" expect)
    true
    (diag_mentions expect (Exp_cache.diagnostics cache));
  (* the recompute overwrote the bad entry: a third cache warm-loads *)
  let again = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
  let r' = Exp_cache.run again rob_config in
  check_meas "rewritten entry loads" orig.Exp_harness.meas r'.Exp_harness.meas;
  check ci "rewritten entry is a disk hit" 1
    (Exp_cache.stats again).Exp_cache.disk_hits

let test_store_truncated () =
  recompute_after ~expect:"truncated" (fun file _key ->
      (* cut the binary entry off before its digest trailer can fit *)
      write_all file (String.sub (read_all file) 0 20))

let test_store_bit_flip () =
  recompute_after ~expect:"digest mismatch" (fun file _key ->
      let b = Bytes.of_string (read_all file) in
      let j = Bytes.length b / 2 in
      Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 1));
      write_all file (Bytes.to_string b))

(* a valid digest does not save a wrong version: the version check runs
   even on digest-consistent files — here a current entry relabelled
   with a version byte the format never wrote, its trailer recomputed *)
let test_store_wrong_version () =
  recompute_after ~expect:"unsupported cache version" (fun file _key ->
      let entry = read_all file in
      let body = Bytes.of_string (String.sub entry 0 (String.length entry - 16)) in
      Bytes.set body (String.length "PEPRUN") (Char.chr 99);
      let body = Bytes.to_string body in
      write_all file (body ^ Digest.string body))

(* and without a valid digest: a future version is a structured
   diagnostic, not a silent miss or a misparse *)
let test_store_future_binary_version () =
  recompute_after ~expect:"unsupported cache version" (fun file _key ->
      write_all file ("PEPRUN" ^ String.make 1 (Char.chr 99) ^ "future bytes"))

(* same workload name, size and seed — so the same store file — but a
   different program: the composite key catches the stale entry *)
let test_store_stale_program () =
  let dir = fresh_dir () in
  let _orig, file, _key = populate dir in
  let w = Suite.find "compress" in
  let w' = { w with Workload.build = (Suite.find "db").Workload.build } in
  let env' = Exp_harness.make_env ~seed:33 ~size:20 w' in
  let cache' = Exp_cache.create ~cache_dir:dir env' in
  check cs "same store file"
    file
    (Option.get (Exp_cache.store_file cache' rob_config));
  let r' = Exp_cache.run cache' rob_config in
  let s = Exp_cache.stats cache' in
  check ci "stale entry recomputed" 1 s.Exp_cache.executed;
  check ci "stale entry not loaded" 0 s.Exp_cache.disk_hits;
  check cb "stale diagnostic" true
    (diag_mentions "stale cache entry" (Exp_cache.diagnostics cache'));
  (* the overwrite serves the new program's runs from then on *)
  let again = Exp_cache.create ~cache_dir:dir env' in
  let r'' = Exp_cache.run again rob_config in
  check_meas "overwritten entry loads" r'.Exp_harness.meas r''.Exp_harness.meas;
  check ci "overwritten entry is a disk hit" 1
    (Exp_cache.stats again).Exp_cache.disk_hits

(* a tamper that keeps the digest valid (counts inflated, trailer
   recomputed) passes the store's checks — and must then be caught by
   the re-lint, because disk-loaded profiles are never trusted *)
let test_store_lint_catches_valid_digest_tamper () =
  let dir = fresh_dir () in
  let orig, file, key = populate dir in
  check cb "original run lints clean" false
    (Pep_check.has_errors orig.Exp_harness.checks);
  (* decode the entry, inflate the first recorded path count far past
     the sample bound, and re-save — digest and key both valid *)
  let p =
    match Exp_store.load ~file ~key with
    | Ok (Some p) -> p
    | Ok None -> Alcotest.fail "entry vanished"
    | Error e -> Alcotest.failf "entry unreadable: %s" e.Dcg.reason
  in
  let inflated = ref false in
  let pep_paths =
    List.map
      (fun l ->
        if !inflated then l
        else begin
          inflated := true;
          match String.split_on_char ' ' l with
          | [ mi; pid; _count ] -> Printf.sprintf "%s %s %d" mi pid 1_000_000
          | _ -> Alcotest.failf "unexpected pep.paths line %S" l
        end)
      p.Exp_store.pep_paths
  in
  check cb "inflated a count" true !inflated;
  (match Exp_store.save ~file ~key { p with Exp_store.pep_paths } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "tampered save failed: %s" e.Dcg.reason);
  let cache = Exp_cache.create ~cache_dir:dir (Lazy.force rob_env) in
  let r = Exp_cache.run cache rob_config in
  (* the store accepted it (digest and key are fine)... *)
  check ci "tampered entry loads" 1 (Exp_cache.stats cache).Exp_cache.disk_hits;
  check ci "no execution" 0 (Exp_cache.stats cache).Exp_cache.executed;
  (* ...and the re-lint flags the impossible profile *)
  check cb "re-lint catches inflated counts" true
    (Pep_check.has_errors r.Exp_harness.checks)

(* an entry in the old line-oriented text format, digest and key both
   valid for that format, is just an unrecognised file: rejected with a
   diagnostic, recomputed, and overwritten in the binary format *)
let test_store_rejects_text_format () =
  let entry = ref "" in
  recompute_after ~expect:"not a pepsim run-cache file" (fun file key ->
      entry := file;
      let body =
        [ "pepsim-run-cache v2"; "key " ^ key; "meas 1 2 3 4"; "nsamples 0";
          "pep.paths 0"; "pep.edges 0"; "ppaths 0"; "pedges 0" ]
      in
      let digest = Digest.to_hex (Digest.string (String.concat "\n" body)) in
      write_lines file (body @ [ "digest " ^ digest ]));
  check cb "entry rewritten as binary" true
    (String.starts_with ~prefix:"PEPRUN" (read_all !entry))

(* ------------------- memoization contract ------------------- *)

let test_all_runs_records_once () =
  let dir = fresh_dir () in
  let env = Lazy.force rob_env in
  let a = Exp_cache.create ~cache_dir:dir env in
  let r1 = Exp_cache.run a rob_config in
  let r2 = Exp_cache.run a rob_config in
  check cb "second run is the memoized first" true (r1 == r2);
  check ci "one entry after two runs" 1 (List.length (Exp_cache.all_runs a));
  let s = Exp_cache.stats a in
  check ci "one execution" 1 s.Exp_cache.executed;
  check ci "one memory hit" 1 s.Exp_cache.memory_hits;
  (* a fresh cache over the same store: the disk hit also records the
     run exactly once, with the same measurement *)
  let b = Exp_cache.create ~cache_dir:dir env in
  let rb = Exp_cache.run b rob_config in
  check ci "one entry after disk hit" 1 (List.length (Exp_cache.all_runs b));
  let s = Exp_cache.stats b in
  check ci "disk hit" 1 s.Exp_cache.disk_hits;
  check ci "no execution" 0 s.Exp_cache.executed;
  check_meas "disk-loaded measurement" r1.Exp_harness.meas rb.Exp_harness.meas;
  (* disk-loaded checks are re-derived, not parroted from the file *)
  check cb "rebuilt run lints clean" false
    (Pep_check.has_errors rb.Exp_harness.checks)

(* ------------------- QCheck properties ------------------- *)

let gen_sampling =
  QCheck.Gen.(
    oneof
      [
        return Sampling.never;
        map2
          (fun s t -> Sampling.pep ~samples:s ~stride:t)
          (int_range 1 128) (int_range 1 32);
        map2
          (fun s t -> Sampling.arnold_grove ~samples:s ~stride:t)
          (int_range 1 128) (int_range 1 32);
      ])

let gen_profiling =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [
            Exp_harness.Base;
            Exp_harness.Perfect_path;
            Exp_harness.Perfect_edge;
            Exp_harness.Classic_blpp;
            Exp_harness.Instr_back_edge;
          ];
        map3
          (fun sampling zero numbering ->
            Exp_harness.Pep_profiled { sampling; zero; numbering })
          gen_sampling
          (oneofl [ `Hottest; `Coldest ])
          (oneofl [ `Smart; `Ball_larus ]);
      ])

let gen_table =
  QCheck.Gen.(
    map
      (fun entries ->
        let tbl = Edge_profile.create_table ~n_methods:2 in
        List.iter
          (fun (mi, br, c) ->
            Edge_profile.add tbl.(mi) br ~taken:true c;
            Edge_profile.add tbl.(mi) br ~taken:false (c / 2))
          entries;
        tbl)
      (list_size (int_range 0 12)
         (triple (int_range 0 1) (int_range 0 15) (int_range 1 100))))

let gen_opt_profile =
  QCheck.Gen.(
    oneof
      [
        return Driver.From_baseline;
        return Driver.From_pep;
        map (fun t -> Driver.Fixed t) gen_table;
      ])

let gen_faults =
  QCheck.Gen.(
    oneof
      [
        return Fault_plan.empty;
        return { Fault_plan.empty with Fault_plan.noop = true };
        map2
          (fun seed cap ->
            { Fault_plan.empty with Fault_plan.seed; path_capacity = Some cap })
          (int_range 1 5) (int_range 1 64);
        map
          (fun p -> { Fault_plan.empty with Fault_plan.compile_fail = p })
          (oneofl [ 0.25; 0.5; 1.0 ]);
      ])

let gen_config =
  QCheck.Gen.(
    map
      (fun (profiling, opt_profile, (inline, unroll, engine), faults) ->
        {
          Exp_harness.profiling;
          opt_profile;
          inline;
          unroll;
          deep = false;
          engine;
          telemetry = None;
          faults;
        })
      (quad gen_profiling gen_opt_profile
         (triple bool bool (oneofl [ `Oracle; `Threaded ]))
         gen_faults))

(* structural equivalence, comparing fixed tables by canonical content *)
let same_opt a b =
  match (a, b) with
  | Driver.From_baseline, Driver.From_baseline
  | Driver.From_pep, Driver.From_pep ->
      true
  | Driver.Fixed ta, Driver.Fixed tb ->
      Edge_profile.to_lines ta = Edge_profile.to_lines tb
  | _ -> false

(* plans compare by canonical key: two plans the key cannot tell apart
   (e.g. [empty] vs [empty] with another seed) must not be required to
   produce distinct config keys *)
let same_config (a : Exp_harness.config) (b : Exp_harness.config) =
  a.profiling = b.profiling
  && same_opt a.opt_profile b.opt_profile
  && a.inline = b.inline && a.unroll = b.unroll && a.engine = b.engine
  && Fault_plan.key a.faults = Fault_plan.key b.faults

(* a structurally-equal but physically-distinct copy (fixed tables
   rebuilt through the parse_line round trip) *)
let copy_config (c : Exp_harness.config) =
  match c.opt_profile with
  | Driver.From_baseline | Driver.From_pep -> c
  | Driver.Fixed t ->
      let t' = Edge_profile.create_table ~n_methods:(Array.length t) in
      List.iter
        (fun l ->
          match Edge_profile.parse_line t' l with
          | Ok () -> ()
          | Error e -> Alcotest.failf "edge line %S rejected: %s" l e)
        (Edge_profile.to_lines t);
      { c with Exp_harness.opt_profile = Driver.Fixed t' }

let gen_config_pair =
  QCheck.Gen.(
    pair gen_config gen_config >>= fun (a, b) ->
    oneofl [ (a, copy_config a); (a, b) ])

(* [config_key] is exactly the equivalence the cache memoizes by — and,
   [telemetry] being stripped before persisting, also exactly the
   identity the on-disk store keys runs by *)
let prop_config_key_injective =
  QCheck.Test.make ~count:300 ~name:"config_key injective"
    (QCheck.make gen_config_pair) (fun (a, b) ->
      (Exp_harness.config_key a = Exp_harness.config_key b) = same_config a b)

(* arbitrary bytes, with newlines, carriage returns and spaces common *)
let gen_string =
  QCheck.Gen.(
    string_size (int_range 0 30)
      ~gen:(frequency [ (3, char); (1, oneofl [ '\n'; '\r'; ' ' ]) ]))

let gen_payload =
  QCheck.Gen.(
    map
      (fun (((i1, i2, c), (ck, n)), (pp, pe, tp, te)) ->
        {
          Exp_store.iter1 = i1;
          iter2 = i2;
          compile = c;
          checksum = ck;
          n_samples = n;
          pep_paths = pp;
          pep_edges = pe;
          ppaths = tp;
          pedges = te;
        })
      (pair
         (pair
            (triple
               (int_range (-1000000) 1000000)
               (int_range (-1000000) 1000000)
               (int_range (-1000000) 1000000))
            (pair (int_range (-1000000) 1000000) (int_range 0 100000)))
         (quad
            (list_size (int_range 0 8) gen_string)
            (list_size (int_range 0 8) gen_string)
            (list_size (int_range 0 8) gen_string)
            (list_size (int_range 0 8) gen_string))))

(* the binary codec in memory: encode∘decode is the identity on
   arbitrary payloads, and any single flipped bit — body, digest
   trailer, magic or version byte — is rejected, never misparsed *)
let prop_codec_binary =
  QCheck.Test.make ~count:200 ~name:"binary codec round trip and tamper"
    (QCheck.make
       QCheck.Gen.(triple gen_payload gen_string (int_range 0 100000)))
    (fun (p, key, i) ->
      let key = "k|" ^ key in
      let enc = Exp_store.encode ~key p in
      (match Exp_store.decode ~file:"mem" ~key enc with
      | Ok p' when p' = p -> ()
      | Ok _ -> QCheck.Test.fail_report "payload changed through binary codec"
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Dcg.reason);
      let b = Bytes.of_string enc in
      let j = i mod Bytes.length b in
      Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor (1 lsl (i mod 8))));
      (match Exp_store.decode ~file:"mem" ~key (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> QCheck.Test.fail_report "tampered byte not rejected");
      true)

let rt_dir = lazy (fresh_dir ())

let prop_store_round_trip =
  QCheck.Test.make ~count:100 ~name:"store save/load round trip"
    (QCheck.make QCheck.Gen.(pair gen_payload gen_string))
    (fun (p, key) ->
      let key = "k|" ^ key in
      let file = Filename.concat (Lazy.force rt_dir) "rt.run" in
      (match Exp_store.save ~file ~key p with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "save failed: %s" e.Dcg.reason);
      (match Exp_store.load ~file ~key with
      | Ok (Some p') when p' = p -> ()
      | Ok (Some _) -> QCheck.Test.fail_report "payload changed in round trip"
      | Ok None -> QCheck.Test.fail_report "entry vanished"
      | Error e -> QCheck.Test.fail_reportf "load failed: %s" e.Dcg.reason);
      (* a different key is a stale entry, not a payload *)
      (match Exp_store.load ~file ~key:(key ^ "'") with
      | Error _ -> ()
      | Ok _ -> QCheck.Test.fail_report "key mismatch not detected");
      true)

let suite =
  [
    Alcotest.test_case "pool and disk cache are bit-identical to serial" `Slow
      test_pool_differential;
    Alcotest.test_case "suite_envs deterministic across jobs" `Slow
      test_suite_envs_deterministic;
    Alcotest.test_case "truncated entry recomputed" `Slow test_store_truncated;
    Alcotest.test_case "bit-flipped entry recomputed" `Slow test_store_bit_flip;
    Alcotest.test_case "wrong-version entry recomputed" `Slow
      test_store_wrong_version;
    Alcotest.test_case "future binary version recomputed" `Slow
      test_store_future_binary_version;
    Alcotest.test_case "stale program digest recomputed" `Slow
      test_store_stale_program;
    Alcotest.test_case "digest-valid tamper caught by re-lint" `Slow
      test_store_lint_catches_valid_digest_tamper;
    Alcotest.test_case "text-format entry rejected and rewritten" `Slow
      test_store_rejects_text_format;
    Alcotest.test_case "all_runs records each run once" `Slow
      test_all_runs_records_once;
    QCheck_alcotest.to_alcotest prop_config_key_injective;
    QCheck_alcotest.to_alcotest prop_codec_binary;
    QCheck_alcotest.to_alcotest prop_store_round_trip;
  ]
