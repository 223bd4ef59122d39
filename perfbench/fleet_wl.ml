(* The [fleet] workload: the default drift fleet (steady and shift
   cohorts, 8 instances x 4 windows each, tick-shrink 8) ingested by
   [Fleet_collector.run] into an empty store, then a query burst against
   that store: [Fleet_store.load_all] plus a mix of [Fleet_query.top],
   [folded] and [diff], and [Fleet_watch.run].  The base is the same
   ingest under the cheapest sampling, PEP(1,1), so [pep_over_base] is
   the cost of PEP(64,17)'s sample bursts under the compressed timer. *)

let workload = "drift"

(* Set-ups before and after the untraced run's timed rounds, so that
   [Pb.setup_s] rests on several; a fleet set-up takes tens of
   milliseconds. *)
let setup_reps = 8

(* Queries per round: enough that the p99 has at least 10 samples
   beyond it after one round. *)
let burst = 1100

let resolve () =
  match Suite.resolve workload with Ok w -> w | Error e -> failwith e

let spec ~seed ~pep w =
  if pep then Fleet_collector.default_spec ~seed w
  else Fleet_collector.default_spec ~seed ~samples:1 ~stride:1 w

(* The fleet's set-up, rebuilt from public calls as
   [Fleet_collector.run] begins: resolve the workload, build and verify
   its program, run the cohorts' shared two-iteration adaptive warmup
   under the compressed timer, and prepare an empty store dir.
   [setup_reps] set-ups, timed on [clock]; each must produce the same
   advice, returned with the workload. *)
let setup chk ~seed ~work clock =
  let once () =
    let dir = Pb.fresh_dir ~work "setup" in
    let w, advice, opened =
      Pb.timed_setup clock (fun () ->
          let w = resolve () in
          let s = spec ~seed ~pep:true w in
          let program = Workload.program w in
          Verify.program program;
          let cost =
            {
              Cost_model.default with
              Cost_model.tick_period =
                max 1 (Cost_model.default.Cost_model.tick_period / s.Fleet_collector.tick_shrink);
            }
          in
          let d = Driver.create Driver.default_options (Machine.create ~cost ~seed program) in
          ignore (Driver.run d);
          ignore (Driver.run d);
          (w, Advice.to_lines (Driver.advice d), Fleet_store.open_ dir))
    in
    Pb.invariant chk (Result.is_ok opened) "preparing an empty store failed";
    Pb.rm_rf dir;
    (w, advice)
  in
  let w, advice = once () in
  for _ = 2 to setup_reps do
    Pb.invariant chk (snd (once ()) = advice) "fleet set-up is not deterministic"
  done;
  (w, advice)

(* Digest of a store's segment files, names and bytes. *)
let store_digest dir =
  let segs =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".seg")
         (Array.to_list (Sys.readdir dir)))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun f -> f ^ "\n" ^ In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
             segs)))

type ingested = {
  dir : string;
  seconds : float;
  words : float;
  report : Fleet_collector.report option;
  digest : string;
  segments : int;
}

(* One ingest, into [dir] or else into an empty store, then its output
   checks: no diagnostics, every instance simulated, and the report's
   samples equal the sum over the stored segments of the ingested
   cohorts. *)
let ingest chk ~work ~op ?dir spec =
  let dir = match dir with Some d -> d | None -> Pb.fresh_dir ~work "store" in
  Pb.collected ();
  let words, (seconds, res) =
    Pb.alloc_words (fun () -> Pb.time (fun () -> Fleet_collector.run ~jobs:1 ~dir spec))
  in
  Pb.attempt chk;
  match res with
  | Error e ->
      Pb.expect chk ~op false (Fmt.str "%a" Dcg.pp_parse_error e);
      { dir; seconds; words; report = None; digest = ""; segments = 0 }
  | Ok r ->
      let segs, diags = Fleet_store.load_all ~dir in
      Pb.expect chk ~op (r.Fleet_collector.diags = [] && diags = []) "store diagnostics";
      Pb.expect chk ~op
        (r.Fleet_collector.simulated = r.Fleet_collector.instances)
        "not every instance was simulated";
      let cohorts = List.map (Fleet_collector.cohort_of spec) spec.Fleet_collector.cohorts in
      let ingested (s : Fleet_store.segment) =
        List.exists (Fleet.Cohort.equal s.Fleet_store.cohort) cohorts
      in
      Pb.expect chk ~op
        (r.Fleet_collector.samples_taken
        = List.fold_left
            (fun acc (s : Fleet_store.segment) ->
              if ingested s then acc + s.Fleet_store.samples else acc)
            0 segs)
        "report's samples differ from the sum over segments";
      { dir; seconds; words; report = Some r; digest = store_digest dir; segments = List.length segs }

type query = Top of Fleet_query.kind | Folded of Fleet_query.kind | Diff of string | Watch

let queries =
  [|
    Top `Paths; Top `Edges; Top `Dcg; Folded `Paths; Folded `Edges; Folded `Dcg;
    Diff "steady"; Diff "shift"; Watch;
  |]

let family = function
  | Top _ -> "top"
  | Folded _ -> "folded"
  | Diff _ -> "diff"
  | Watch -> "watch"

(* [pepsim fleet diff]'s temporal split: the cohort's early windows
   against its late ones. *)
let temporal_diff segs cohort =
  let max_hi =
    List.fold_left
      (fun acc (s : Fleet_store.segment) -> max acc s.Fleet_store.window.Fleet.Window.hi)
      0 segs
  in
  let split = (max_hi + 1) / 2 in
  let select lo hi = Fleet_query.select segs { Fleet_query.cohort = Some cohort; lo; hi } in
  Fleet_query.diff
    ~baseline:(Fleet_query.view (select None (Some (split - 1))))
    ~current:(Fleet_query.view (select (Some split) None))
    ()

let answer ~dir segs = function
  | Top k ->
      List.map (fun (l, s) -> Printf.sprintf "%s %.17g" l s) (Fleet_query.top ~n:10 k segs)
  | Folded k -> Folded.to_lines (Fleet_query.folded k (Fleet_query.view segs))
  | Diff c -> List.map Fleet_query.render_finding (temporal_diff segs c)
  | Watch ->
      let report =
        Fleet_watch.run ~rules:(Fleet_watch.default_rules ())
          ~degraded:(Fleet_store.load_degraded ~dir) segs
      in
      List.map Fleet_watch.render_alert report.Fleet_watch.alerts

(* Per burst, the load and answer seconds of query [i] at index [i];
   unboxed, so the benchmark's own bookkeeping barely moves the peak
   heap. *)
type burst_acc = {
  mutable bursts : (Float.Array.t * Float.Array.t) list;
  answers : (int, string list) Hashtbl.t;
}

let burst_acc () = { bursts = []; answers = Hashtbl.create 16 }

(* Every query sample: (family, load seconds, answer seconds). *)
let samples acc =
  List.concat_map
    (fun (load, answer) ->
      List.init burst (fun i ->
          ( family queries.(i mod Array.length queries),
            Float.Array.get load i,
            Float.Array.get answer i )))
    acc.bursts

(* [burst] queries, each loading the store afresh.  Every repeat of a
   query must return the same answer; the steady cohort's diff must be
   empty and the shifting cohort's must not. *)
let query_burst chk acc ~dir ~round =
  let load = Float.Array.make burst 0. and answer_s = Float.Array.make burst 0. in
  acc.bursts <- (load, answer_s) :: acc.bursts;
  for i = 0 to burst - 1 do
    let qi = i mod Array.length queries in
    let q = queries.(qi) in
    let t0 = Pb.now () in
    let segs, diags = Fleet_store.load_all ~dir in
    let t1 = Pb.now () in
    let ans = answer ~dir segs q in
    let t2 = Pb.now () in
    Pb.attempt chk;
    Float.Array.set load i (t1 -. t0);
    Float.Array.set answer_s i (t2 -. t1);
    let op = Printf.sprintf "query%d/round%d" i round in
    Pb.expect chk ~op (diags = []) "load_all reported diagnostics";
    (match Hashtbl.find_opt acc.answers qi with
    | None -> Hashtbl.replace acc.answers qi ans
    | Some first -> Pb.expect chk ~op (ans = first) "a repeated query changed its answer");
    match q with
    | Diff "steady" -> Pb.expect chk ~op (ans = []) "steady cohort diff is not empty"
    | Diff _ -> Pb.expect chk ~op (ans <> []) "shifting cohort diff is empty"
    | Top _ | Folded _ | Watch -> ()
  done

let mode_keys = [| "base"; "pep" |]

(* Every ingest of one spec must write the same store. *)
let same_store chk ~op digests digest pep =
  match Hashtbl.find_opt digests pep with
  | None -> Hashtbl.replace digests pep digest
  | Some d -> Pb.expect chk ~op (digest = d) "ingest wrote a different store"

(* The untraced run ingests the fleet one cohort at a time, each cohort
   by its own [Fleet_collector.run] into the round's store.  That writes
   the same store as one ingest of the whole fleet (checked once per
   run), in operations half as long, so base and PEP ingests interleave
   more finely on a host whose speed drifts over seconds.  Each round
   fills a base store and a PEP(64,17) store, cohort by cohort, the
   order of the two modes alternating (base, pep, pep, base, then the
   reverse), and runs the query burst once, on the PEP store. *)
let run chk ~seed ~seconds ~work =
  let setups = Pb.setup_clock () in
  let w, advice = setup chk ~seed ~work setups in
  let cohorts = (spec ~seed ~pep:true w).Fleet_collector.cohorts in
  let cohort_spec ~pep c = { (spec ~seed ~pep w) with Fleet_collector.cohorts = [ c ] } in
  (* ingest seconds per cohort, per mode (0 base, 1 pep) *)
  let times = Array.of_list (List.map (fun _ -> [| []; [] |]) cohorts) in
  let digests = Hashtbl.create 2 and acc = burst_acc () in
  let rounds =
    Pb.rounds_for ~seconds (fun r ->
        let dirs = [| Pb.fresh_dir ~work "base"; Pb.fresh_dir ~work "pep" |] in
        let last_op = Array.make 2 "" in
        List.iteri
          (fun ci ((cohort, _) as c) ->
            List.iter
              (fun m ->
                let op = Printf.sprintf "ingest-%s-%s/round%d" mode_keys.(m) cohort r in
                let i = ingest chk ~work ~op ~dir:dirs.(m) (cohort_spec ~pep:(m = 1) c) in
                times.(ci).(m) <- i.seconds :: times.(ci).(m);
                last_op.(m) <- op)
              (if (r + ci) mod 2 = 0 then [ 0; 1 ] else [ 1; 0 ]))
          cohorts;
        Array.iteri
          (fun m dir -> same_store chk ~op:last_op.(m) digests (store_digest dir) (m = 1))
          dirs;
        query_burst chk acc ~dir:dirs.(1) ~round:r;
        Array.iter Pb.rm_rf dirs)
  in
  let peak = Pb.peak_heap_mb () in
  Pb.invariant chk
    (snd (setup chk ~seed ~work setups) = advice)
    "fleet set-up is not deterministic";
  let whole = ingest chk ~work ~op:"ingest-pep-whole" (spec ~seed ~pep:true w) in
  Pb.invariant chk
    (Hashtbl.find_opt digests true = Some whole.digest)
    "ingesting cohort by cohort wrote a different store than one ingest of the fleet";
  Pb.rm_rf whole.dir;
  (* A cohort's two ingests in a round run back to back, so their ratio
     cancels host drift slower than one ingest; the ratio is the median
     over cohorts and rounds.  Pass times are per-cohort minima (see
     [Replay_wl.total]). *)
  let pass m = Pb.sum (List.mapi (fun ci _ -> Pb.minimum times.(ci).(m)) cohorts) in
  let pep_over_base =
    Pb.median
      (List.concat
         (List.mapi (fun ci _ -> List.map2 ( /. ) times.(ci).(1) times.(ci).(0)) cohorts))
  in
  let setup_s = Pb.setup_s setups in
  let lat = List.map (fun (_, l, q) -> 1000. *. (l +. q)) (samples acc) in
  let n = List.length lat in
  Pb.report_setup setups;
  Pb.report "base_s" ~unit_:"s" ~stat:"PEP(1,1) ingest, per-cohort minima" ~n:rounds (pass 0);
  Pb.report "pep_s" ~unit_:"s" ~stat:"PEP(64,17) ingest, per-cohort minima" ~n:rounds (pass 1);
  Pb.report "pep_over_base" ~unit_:"ratio" ~stat:"median of back-to-back pairs"
    ~n:(rounds * List.length cohorts) pep_over_base;
  Pb.report "query latency" ~unit_:"ms" ~stat:"p50" ~n (Pb.median lat);
  Pb.report "query latency" ~unit_:"ms" ~stat:"p99" ~n (Pb.percentile 0.99 lat);
  [ Pb.m "setup_s" "s" setup_s; Pb.m "pep_over_base" "ratio" pep_over_base; Pb.m "peak_heap_mb" "MB" peak ]

(* --- traced run ------------------------------------------------------ *)

let traced chk ~seed ~seconds ~work =
  let w, _ = setup chk ~seed ~work (Pb.setup_clock ()) in
  let untraced = ref [] and raw_compact = ref [] and compact = ref [] and base = ref [] in
  let pep_words = ref [] and base_words = ref [] in
  let last_pep = ref None and last_base = ref None in
  let digests = Hashtbl.create 2 and acc = burst_acc () in
  let rounds =
    Pb.rounds_for ~seconds (fun r ->
        let op kind = Printf.sprintf "ingest-%s/round%d" kind r in
        (* PEP(1,1) and PEP(64,17) ingests alternate order by round *)
        let ingest_base () =
          let b = ingest chk ~work ~op:(op "base") (spec ~seed ~pep:false w) in
          same_store chk ~op:(op "base") digests b.digest false;
          base := b.seconds :: !base;
          base_words := b.words :: !base_words;
          last_base := Some b;
          Pb.rm_rf b.dir
        in
        if r mod 2 = 1 then ingest_base ();
        let i = ingest chk ~work ~op:(op "pep") (spec ~seed ~pep:true w) in
        same_store chk ~op:(op "pep") digests i.digest true;
        untraced := i.seconds :: !untraced;
        pep_words := i.words :: !pep_words;
        last_pep := Some i;
        if r mod 2 = 0 then ingest_base ();
        (* the same ingest with compaction split out *)
        let raw_spec = { (spec ~seed ~pep:true w) with Fleet_collector.keep_raw = true } in
        let raw = ingest chk ~work ~op:(op "raw") raw_spec in
        let dt, (_, _, errs) = Pb.time (fun () -> Fleet_store.compact ~dir:raw.dir) in
        Pb.invariant chk
          (errs = [] && store_digest raw.dir = i.digest)
          "keep_raw ingest + compact wrote a different store";
        compact := dt :: !compact;
        raw_compact := (raw.seconds +. dt) :: !raw_compact;
        Pb.rm_rf raw.dir;
        query_burst chk acc ~dir:i.dir ~round:r;
        Pb.rm_rf i.dir)
  in
  let taken (i : ingested option) =
    match i with
    | Some { report = Some r; _ } -> float_of_int r.Fleet_collector.samples_taken
    | _ -> 0.
  in
  let pep_samples = taken !last_pep and base_samples = taken !last_base in
  let ms f xs = 1000. *. Pb.median (List.map f xs) in
  let samples = samples acc in
  let of_family fam =
    ms (fun (_, _, q) -> q) (List.filter (fun (f, _, _) -> f = fam) samples)
  in
  let lat = List.map (fun (_, l, q) -> 1000. *. (l +. q)) samples in
  let pep_s = Pb.minimum !untraced and base_s = Pb.minimum !base in
  (* the cost of writing raw segments and compacting them apart, over
     the ingest that compacts as it goes *)
  let raw_compact_over_ingest = Pb.minimum !raw_compact /. pep_s in
  Pb.report "raw_compact_over_ingest" ~unit_:"ratio" ~stat:"ingest minima" ~n:rounds
    raw_compact_over_ingest;
  let last f = match !last_pep with Some i -> f i | None -> 0. in
  [
    Pb.m "host.base_s" "s" base_s;
    Pb.m "host.pep_s" "s" pep_s;
    Pb.m "fleet.compact_s" "s" (Pb.minimum !compact);
    Pb.m "fleet.load_ms" "ms" (ms (fun (_, l, _) -> l) samples);
    Pb.m "fleet.top_ms" "ms" (of_family "top");
    Pb.m "fleet.folded_ms" "ms" (of_family "folded");
    Pb.m "fleet.diff_ms" "ms" (of_family "diff");
    Pb.m "fleet.watch_ms" "ms" (of_family "watch");
    Pb.m "fleet.query_p50_ms" "ms" (Pb.median lat);
    Pb.m "fleet.query_p99_ms" "ms" (Pb.percentile 0.99 lat);
    Pb.m "core.sample_ns" "ns"
      (if pep_samples > base_samples then (pep_s -. base_s) /. (pep_samples -. base_samples) *. 1e9
       else 0.);
    Pb.m "alloc_mwords.base" "Mwords" (Pb.minimum !base_words /. 1e6);
    Pb.m "alloc_mwords.pep" "Mwords" (Pb.minimum !pep_words /. 1e6);
    Pb.m "fleet.samples" "count" pep_samples;
    Pb.m "fleet.store_bytes" "bytes"
      (match !last_pep with
      | Some { report = Some r; _ } -> float_of_int r.Fleet_collector.store_bytes
      | _ -> 0.);
    Pb.m "fleet.segments" "count" (last (fun i -> float_of_int i.segments));
    Pb.m "fleet.raw_compact_over_ingest" "ratio" raw_compact_over_ingest;
  ]
