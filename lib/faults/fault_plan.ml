type t = {
  seed : int;
  noop : bool;
  path_capacity : int option;
  edge_capacity : int option;
  compile_fail : float;
  compile_retries : int;
  compile_backoff : int;
  sample_overrun : float;
  corrupt : float;
  crash : float;
  crash_restarts : int;
  torn_write : float;
  straggler : float;
  straggler_timeout : int;
  seg_corrupt : float;
  seg_retries : int;
}

let empty =
  {
    seed = 0;
    noop = false;
    path_capacity = None;
    edge_capacity = None;
    compile_fail = 0.;
    compile_retries = 3;
    compile_backoff = 50_000;
    sample_overrun = 0.;
    corrupt = 0.;
    crash = 0.;
    crash_restarts = 4;
    torn_write = 0.;
    straggler = 0.;
    straggler_timeout = 2;
    seg_corrupt = 0.;
    seg_retries = 3;
  }

let perturbs_execution t =
  t.path_capacity <> None
  || t.edge_capacity <> None
  || t.compile_fail > 0.
  || t.sample_overrun > 0.

(* Fleet faults live entirely on the host side of the collector: an
   instance restart replays the same pure simulation, a torn or corrupt
   write damages bytes after the snapshot was taken, and a straggler
   only reorders when a finished window reaches the store.  None of
   them touch the simulated machine, so [perturbs_execution] stays
   false for a pure fleet plan. *)
let perturbs_fleet t =
  t.crash > 0. || t.torn_write > 0. || t.straggler > 0. || t.seg_corrupt > 0.

let is_empty t =
  (not t.noop)
  && t.path_capacity = None
  && t.edge_capacity = None
  && t.compile_fail = 0.
  && t.sample_overrun = 0.
  && t.corrupt = 0.
  && t.crash = 0.
  && t.torn_write = 0.
  && t.straggler = 0.
  && t.seg_corrupt = 0.

(* The clause table: one row per key, in key order.  A clause shows
   in [key] when it differs from [empty]; the retry, restart, timeout
   and backoff knobs only show next to the fault they qualify. *)
let fields =
  let open Spec in
  let count ?(lo = 0) ?fault key get set =
    let shown t =
      get t <> get empty && Option.fold ~none:true ~some:(fun f -> f t > 0.) fault
    in
    field ~shown key (int ~lo ()) get set
  in
  let cap key get set =
    field ~shown:(fun t -> get t <> None) key (some (int ~lo:0 ())) get set
  in
  let prob key get set = field ~shown:(fun t -> get t > 0.) key fraction get set in
  let compile_fail t = t.compile_fail and crash t = t.crash in
  let straggler t = t.straggler and seg_corrupt t = t.seg_corrupt in
  [
    count "seed" (fun t -> t.seed) (fun t seed -> { t with seed });
    flag "noop" (fun t -> t.noop) (fun t noop -> { t with noop });
    cap "path-cap" (fun t -> t.path_capacity) (fun t v -> { t with path_capacity = v });
    cap "edge-cap" (fun t -> t.edge_capacity) (fun t v -> { t with edge_capacity = v });
    prob "compile-fail" compile_fail (fun t compile_fail -> { t with compile_fail });
    count "compile-retries" ~fault:compile_fail
      (fun t -> t.compile_retries)
      (fun t compile_retries -> { t with compile_retries });
    count "compile-backoff" ~lo:1 ~fault:compile_fail
      (fun t -> t.compile_backoff)
      (fun t compile_backoff -> { t with compile_backoff });
    prob "sample-overrun"
      (fun t -> t.sample_overrun)
      (fun t sample_overrun -> { t with sample_overrun });
    prob "corrupt" (fun t -> t.corrupt) (fun t corrupt -> { t with corrupt });
    prob "crash" crash (fun t crash -> { t with crash });
    count "crash-restarts" ~fault:crash
      (fun t -> t.crash_restarts)
      (fun t crash_restarts -> { t with crash_restarts });
    prob "torn-write" (fun t -> t.torn_write) (fun t v -> { t with torn_write = v });
    prob "straggler" straggler (fun t straggler -> { t with straggler });
    count "straggler-timeout" ~lo:1 ~fault:straggler
      (fun t -> t.straggler_timeout)
      (fun t straggler_timeout -> { t with straggler_timeout });
    prob "seg-corrupt" seg_corrupt (fun t seg_corrupt -> { t with seg_corrupt });
    count "seg-retries" ~fault:seg_corrupt
      (fun t -> t.seg_retries)
      (fun t seg_retries -> { t with seg_retries });
  ]

let key t = if is_empty t then "" else String.concat "," (Spec.encode fields t)

let pp ppf t =
  if is_empty t then Fmt.string ppf "(no faults)" else Fmt.string ppf (key t)

(* Inline or from an [@file], a plan is lines of comma-separated
   clauses. *)
let parse spec =
  let spec = String.trim spec in
  let text =
    if String.starts_with ~prefix:"@" spec then
      Spec.read_file (String.sub spec 1 (String.length spec - 1))
    else Ok spec
  in
  Result.bind text (fun text ->
      Spec.decode fields empty
        (List.concat_map (fun (_, line) -> Spec.split ',' line) (Spec.lines text)))

let parse_exn spec =
  match parse spec with
  | Ok t -> t
  | Error e -> invalid_arg ("Fault_plan.parse_exn: " ^ Spec.error_to_string e)
