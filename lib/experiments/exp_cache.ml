type stats = {
  memory_hits : int;
  disk_hits : int;
  executed : int;
  store_errors : int;
}

type t = {
  env : Exp_harness.env;
  base_config : Exp_harness.config;
  runs : (string, Exp_harness.run) Hashtbl.t;
  mutable perfect_edge_table : Edge_profile.table option;
  cache_dir : string option;
  identity : string;
      (* workload + size + seed + program and cost-model
         digests: everything a persisted run's validity depends on *)
  mutable memory_hits : int;
  mutable disk_hits : int;
  mutable executed : int;
  mutable store_errors : int;
  mutable diags : Dcg.parse_error list;  (* oldest first *)
  m_hit : Metrics.counter option;
  m_miss : Metrics.counter option;
}

let create ?(config = Exp_harness.default) ?cache_dir env =
  (* surface an unusable cache directory once, at open; the cache still
     works (every run recomputes) with the failure on record *)
  let open_diags =
    match cache_dir with
    | None -> []
    | Some dir -> (
        match Durable.prepare_dir dir with Ok () -> [] | Error e -> [ e ])
  in
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  (* the format version is not part of the identity: [Exp_store.load]
     rejects any other version before it reads the key *)
  let identity =
    Fmt.str "workload=%s|size=%d|seed=%d|prog=%s|cost=%s"
      env.Exp_harness.workload.Workload.name env.Exp_harness.size
      env.Exp_harness.seed
      (digest env.Exp_harness.program)
      (digest Cost_model.default)
  in
  let counter name =
    Option.map
      (fun tel -> Metrics.counter (Telemetry.metrics tel) name)
      config.Exp_harness.telemetry
  in
  {
    env;
    base_config = config;
    runs = Hashtbl.create 16;
    perfect_edge_table = None;
    cache_dir;
    identity;
    memory_hits = 0;
    disk_hits = 0;
    executed = 0;
    store_errors = List.length open_diags;
    diags = open_diags;
    m_hit = counter "exp.cache_hit";
    m_miss = counter "exp.cache_miss";
  }

let env t = t.env
let config t = t.base_config
let cache_dir t = t.cache_dir

let stats t =
  {
    memory_hits = t.memory_hits;
    disk_hits = t.disk_hits;
    executed = t.executed;
    store_errors = t.store_errors;
  }

let diagnostics t = t.diags
let mincr = function Some c -> Metrics.incr c | None -> ()

(* A [From_pep] optimizing compilation consults the live sampler state
   at each method's compile time, which a rebuild (precompile, no
   execution) cannot reproduce — so those runs are never persisted.
   Neither are runs under an execution-perturbing fault plan: a rebuild
   precompiles in method-index order, re-ordering the fault-decision
   stream relative to the live run's lazy compilation. *)
let persistable (config : Exp_harness.config) =
  (not (Fault_plan.perturbs_execution config.Exp_harness.faults))
  &&
  match config.Exp_harness.opt_profile with
  | Driver.From_pep -> false
  | Driver.From_baseline | Driver.Fixed _ -> true

(* Measurements are bit-identical with and without a telemetry sink (a
   tested invariant), so the persisted identity strips it: traced and
   untraced sweeps share disk entries. *)
let file_and_key t config =
  match t.cache_dir with
  | Some dir when persistable config ->
      let ckey =
        Exp_harness.config_key { config with Exp_harness.telemetry = None }
      in
      let file_key =
        Fmt.str "%s|%d|%d|%s" t.env.Exp_harness.workload.Workload.name
          t.env.Exp_harness.size t.env.Exp_harness.seed ckey
      in
      Some (Exp_store.filename ~dir file_key, t.identity ^ "|cfg=" ^ ckey)
  | Some _ | None -> None

let store_file t config = Option.map fst (file_and_key t config)
let store_slot = file_and_key

let payload_of_run (r : Exp_harness.run) =
  {
    Exp_store.iter1 = r.Exp_harness.meas.iter1;
    iter2 = r.Exp_harness.meas.iter2;
    compile = r.Exp_harness.meas.compile;
    checksum = r.Exp_harness.meas.checksum;
    n_samples =
      (match r.Exp_harness.pep with Some p -> Pep.n_samples p | None -> 0);
    pep_paths =
      (match r.Exp_harness.pep with
      | Some p -> Path_profile.to_lines p.Pep.paths
      | None -> []);
    pep_edges =
      (match r.Exp_harness.pep with
      | Some p -> Edge_profile.to_lines p.Pep.edges
      | None -> []);
    ppaths =
      (match r.Exp_harness.ppaths with
      | Some p -> Path_profile.to_lines p.Profiler.table
      | None -> []);
    pedges =
      (match r.Exp_harness.pedges with
      | Some p -> Edge_profile.to_lines p.Profiler.etable
      | None -> []);
  }

type outcome = {
  o_run : Exp_harness.run;
  o_from_disk : bool;
  o_diags : Dcg.parse_error list;
}

(* The worker half of a run: everything except touching the memo table
   and counters.  Reads only immutable cache state (env, identity,
   cache_dir), so concurrent [compute]s on one cache from several
   domains are safe; the only side effect is an atomic store write. *)
let compute t config =
  let faults = Exp_harness.injector_of config in
  let slot = file_and_key t config in
  let execute diags =
    let r = Exp_harness.replay ?faults t.env config in
    let diags =
      match slot with
      | None -> diags
      | Some (file, key) -> (
          match Exp_store.save ~file ~key (payload_of_run r) with
          | Ok () -> diags
          | Error e -> diags @ [ e ])
    in
    { o_run = r; o_from_disk = false; o_diags = diags }
  in
  match slot with
  | None -> execute []
  | Some (file, key) -> (
      match Exp_store.load ~file ~key with
      | Ok None -> execute []
      | Ok (Some payload) -> (
          match faults with
          | Some inj when Fault_injector.fire_corrupt inj ~what:"store" ->
              (* the plan says this load observed a corrupted entry:
                 quarantine it and recompute, exactly as a real digest
                 mismatch would *)
              Fault_injector.note_quarantine inj ~what:"store"
                ~reason:"fault plan corrupted this cache entry";
              execute
                [
                  {
                    Dcg.file = Some file;
                    line = 0;
                    text = "";
                    reason = "cache entry quarantined by fault plan; recomputed";
                  };
                ]
          | Some _ | None ->
          match Exp_harness.rebuild ?faults t.env config payload with
          | Ok r -> { o_run = r; o_from_disk = true; o_diags = [] }
          | Error reason ->
              (* shape passed the digest but not the configuration:
                 recompute and overwrite, reporting why *)
              execute
                [
                  {
                    Dcg.file = Some file;
                    line = 0;
                    text = "";
                    reason = "cache entry rejected: " ^ reason;
                  };
                ])
      | Error e -> execute [ e ])

(* The main-domain half: memoize and account.  Callers that shard
   [compute]s across domains must install results in a deterministic
   order (the pool installs in sorted-key order). *)
let install t config o =
  Hashtbl.replace t.runs (Exp_harness.config_key config) o.o_run;
  if o.o_from_disk then begin
    t.disk_hits <- t.disk_hits + 1;
    mincr t.m_hit
  end
  else begin
    t.executed <- t.executed + 1;
    mincr t.m_miss
  end;
  t.store_errors <- t.store_errors + List.length o.o_diags;
  t.diags <- t.diags @ o.o_diags;
  o.o_run

let find_run t config =
  Hashtbl.find_opt t.runs (Exp_harness.config_key config)

(* Memoize by the configuration itself: Exp_harness.config_key covers
   every field (fixed opt-profile tables by digest), so two different
   configurations can never alias to the same cached run. *)
let run t config =
  match find_run t config with
  | Some r ->
      t.memory_hits <- t.memory_hits + 1;
      mincr t.m_hit;
      r
  | None -> install t config (compute t config)

let with_profiling t profiling = { t.base_config with Exp_harness.profiling }
let base t = run t (with_profiling t Exp_harness.Base)

let pep t ~samples ~stride =
  run t
    (with_profiling t
       (Exp_harness.Pep_profiled
          {
            sampling = Sampling.pep ~samples ~stride;
            zero = `Hottest;
            numbering = `Smart;
          }))

let instr_only t =
  run t
    (with_profiling t
       (Exp_harness.Pep_profiled
          { sampling = Sampling.never; zero = `Hottest; numbering = `Smart }))

let perfect_path t = run t (with_profiling t Exp_harness.Perfect_path)

let perfect_edges_of_paths t =
  match t.perfect_edge_table with
  | Some table -> table
  | None ->
      let p = Option.get (perfect_path t).Exp_harness.ppaths in
      let table =
        Profiler.edges_of_paths
          ~n_methods:(Program.n_methods t.env.program)
          p.Profiler.plans p.Profiler.table
      in
      t.perfect_edge_table <- Some table;
      table

let all_runs t =
  List.sort compare (Hashtbl.fold (fun key r acc -> (key, r) :: acc) t.runs [])
