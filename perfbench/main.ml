(* perfbench: the repository's end-to-end, layer-by-layer benchmark.

     main.exe --workload replay|adaptive|fleet --seed N --seconds S --trace 0|1
              [--table-out FILE]

   Builds the workload's inputs from the seed, measures for S seconds,
   checks every output, and prints as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 a separate traced
   run times each layer from the outside and prints the per-layer ones
   (0 for a layer the workload does not exercise).  --table-out (replay,
   traced) also writes the host-versus-virtual overhead table.  Scratch
   files go under [work], removed on exit.  Everything runs in this one
   process on one domain. *)

let work = "_perfbench_work"

(* The metric catalog: names, units and order of the result line.
   BENCHMARK.json lists the same metrics in the same order, and
   layers.json says what each per-layer metric measures; the checks
   that keep the three in step are in test_bench.py.

   End-to-end metrics apply to every workload.  Absolute pass times
   vary by up to a third between runs on a shared host, so the gated
   metrics are same-process ratios, set-up time at a reference host
   speed ([Pb.setup_s]) and memory; the pass times themselves are
   per-layer metrics ([host.*]) and summary lines. *)
let end_to_end = [ ("setup_s", "s"); ("pep_over_base", "ratio"); ("peak_heap_mb", "MB") ]

let per_layer =
  [
    ("host.base_s", "s");
    ("host.pep_s", "s");
    ("workloads.build_s", "s");
    ("bytecode.verify_s", "s");
    ("vm.warmup_s", "s");
    ("vm.compile_s", "s");
    ("runtime.exec_s", "s");
    ("runtime.interp_over_codegen", "ratio");
    ("blpp.instr_hooks_s", "s");
    ("blpp.path_hooks_s", "s");
    ("blpp.edge_hooks_s", "s");
    ("blpp.path_over_base", "ratio");
    ("blpp.edge_over_base", "ratio");
    ("core.sample_s", "s");
    ("core.sample_ns", "ns");
    ("analysis.lint_s", "s");
    ("experiments.recall_ms", "ms");
    ("vm.adaptive_iter1_s", "s");
    ("vm.adaptive_iter2_s", "s");
    ("fleet.compact_s", "s");
    ("fleet.raw_compact_over_ingest", "ratio");
    ("fleet.load_ms", "ms");
    ("fleet.top_ms", "ms");
    ("fleet.folded_ms", "ms");
    ("fleet.diff_ms", "ms");
    ("fleet.watch_ms", "ms");
    ("fleet.query_p50_ms", "ms");
    ("fleet.query_p99_ms", "ms");
    ("alloc_mwords.base", "Mwords");
    ("alloc_mwords.instr", "Mwords");
    ("alloc_mwords.pep", "Mwords");
    ("alloc_mwords.path", "Mwords");
    ("alloc_mwords.edge", "Mwords");
    ("vm.yieldpoint.polls", "count");
    ("vm.ticks", "count");
    ("pep.samples.taken", "count");
    ("engine.ic.hits", "count");
    ("engine.ic.misses", "count");
    ("engine.fuse.sites", "count");
    ("vm.recompiles", "count");
    ("fleet.samples", "count");
    ("fleet.store_bytes", "bytes");
    ("fleet.segments", "count");
    ("vm.virtual_pep_over_base", "ratio");
    ("vm.virtual_path_over_base", "ratio");
    ("vm.virtual_edge_over_base", "ratio");
    ("replay.unattributed_s", "s");
    ("trace_overhead", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload replay|adaptive|fleet --seed N --seconds S \
     --trace 0|1 [--table-out FILE]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  table_out : string option;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and table_out = ref None in
  let int_of v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of v); go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := Some s
        | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--table-out" :: v :: rest -> table_out := Some v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some ("replay" | "adaptive" | "fleet" as workload), Some seed, Some seconds, Some trace ->
      { workload; seed; seconds; trace; table_out = !table_out }
  | _ -> usage ()

(* Order the workload's metrics as the catalog lists them; a layer the
   workload does not exercise reads 0.  A metric outside the catalog,
   under a wrong unit, or not finite, is a benchmark bug. *)
let complete chk catalog (ms : Pb.metric list) =
  List.iter
    (fun (mt : Pb.metric) ->
      Pb.invariant chk
        (List.assoc_opt mt.Pb.name catalog = Some mt.Pb.unit_)
        (Printf.sprintf "metric %s [%s] is not in the catalog" mt.Pb.name mt.Pb.unit_);
      Pb.invariant chk (Float.is_finite mt.Pb.value)
        (Printf.sprintf "metric %s is not finite" mt.Pb.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (mt : Pb.metric) -> mt.Pb.name = name) ms with
      | Some mt when Float.is_finite mt.Pb.value -> mt
      | Some _ | None -> Pb.m name unit_ 0.)
    catalog

let result_line chk metrics =
  let metric (mt : Pb.metric) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.Pb.name mt.Pb.value mt.Pb.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (Pb.correct chk) (max 1 chk.Pb.attempted) (Pb.failed chk)
    (String.concat ", " (List.map metric metrics))

let () =
  let a = parse_args () in
  let chk = Pb.checks () in
  let seconds = a.seconds and seed = a.seed in
  (try Sys.mkdir work 0o755 with Sys_error _ -> ());
  let metrics =
    Fun.protect
      ~finally:(fun () -> Pb.rm_rf work)
      (fun () ->
        match (a.workload, a.trace) with
        | "replay", false -> Replay_wl.run chk ~seed ~seconds
        | "replay", true -> Replay_wl.traced chk ~seed ~seconds ~work ~table_out:a.table_out
        | "adaptive", false -> Adaptive_wl.run chk ~seed ~seconds
        | "adaptive", true -> Adaptive_wl.traced chk ~seed ~seconds
        | _, true -> Fleet_wl.traced chk ~seed ~seconds ~work
        | _, false -> Fleet_wl.run chk ~seed ~seconds ~work)
  in
  let catalog = if a.trace then per_layer else end_to_end in
  let metrics = complete chk catalog metrics in
  print_endline (result_line chk metrics)
