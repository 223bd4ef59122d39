(* Shared plumbing for the benchmark workloads: wall-clock timing,
   order statistics, per-operation output checks and the metric list
   every workload returns. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Allocation in words over [f], as [Gc.counters] sees it. *)
let alloc_words f =
  let m0, p0, j0 = Gc.counters () in
  let r = f () in
  let m1, p1, j1 = Gc.counters () in
  (m1 -. m0 +. (j1 -. j0) -. (p1 -. p0), r)

let sum = List.fold_left ( +. ) 0.

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = function
  | [] -> nan
  | xs ->
      let a = sorted_array xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let minimum = function [] -> nan | x :: xs -> List.fold_left Float.min x xs

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p = function
  | [] -> nan
  | xs ->
      let a = sorted_array xs in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let geomean = function
  | [] -> nan
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* Run [body round] for rounds 0, 1, ... until [seconds] have passed
   since the first round started; at least one round always runs.
   Returns the number of rounds. *)
let rounds_for ~seconds body =
  let deadline = now () +. seconds in
  let rec go r =
    body r;
    if now () < deadline then go (r + 1) else r + 1
  in
  go 0

(* Set-up time at a reference host speed.  Set-up is an absolute wall
   time, and on a shared host the same set-up runs up to twice as long
   for minutes at a time, which no statistic within one run removes.
   So every set-up is timed between two runs of [probe], a fixed
   computation of the benchmark's own that no change to the repository
   touches, and [setup_s] scales the set-ups' minimum by
   [reference_probe_s] over the probes' minimum.  A change that slows set-up moves [setup_s]; a
   host that slows set-up and probe alike does not. *)
type setup_clock = { mutable setups : float list; mutable probes : float list }

let setup_clock () = { setups = []; probes = [] }

(* Pointer chasing through a one-cycle permutation, table updates and
   short-lived allocation: the kinds of work the VM's set-up does. *)
let probe () =
  let n = 1 lsl 14 in
  let next = Array.init n (fun i -> ((i * 40505) + 1) land (n - 1)) in
  let tbl = Hashtbl.create 4096 in
  let x = ref 0 and acc = ref [] in
  for i = 1 to 1_000_000 do
    x := next.(!x);
    if !x land 3 = 0 then Hashtbl.replace tbl (!x land 4095) i;
    if i land 15 = 0 then acc := [];
    acc := !x :: !acc
  done;
  ignore (Sys.opaque_identity (Hashtbl.length tbl + !x + List.length !acc))

(* About the probe's minimum on an unloaded 2-vCPU Intel Xeon host. *)
let reference_probe_s = 0.01

(* Time one set-up [f] between two probes. *)
let timed_setup c f =
  let before, () = time probe in
  let dt, r = time f in
  let after, () = time probe in
  c.probes <- before :: after :: c.probes;
  c.setups <- dt :: c.setups;
  r

let setup_s c = minimum c.setups *. reference_probe_s /. minimum c.probes

(* The summary lines behind [setup_s]. *)
let report_setup c =
  let n = List.length c.setups in
  Printf.printf "[perfbench] %-24s %14.6f %-5s (minimum, n=%d)\n" "set-up, as timed"
    (minimum c.setups) "s" n;
  Printf.printf "[perfbench] %-24s %14.6f %-5s (minimum, n=%d)\n" "host-speed probe"
    (minimum c.probes) "s" (List.length c.probes);
  Printf.printf "[perfbench] %-24s %14.6f %-5s (at reference speed)\n%!" "setup_s"
    (setup_s c) "s"

(* A metric as the result line prints it. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Output checks.  Every timed operation is registered once
   ([attempted]); a check that fails names the operation, which then
   counts once in [failed] however many of its checks failed.
   Checks that belong to no single operation (the layer accounting)
   go through [invariant]: a failure makes the run incorrect. *)
type checks = {
  mutable attempted : int;
  failed_ops : (string, unit) Hashtbl.t;
  mutable broken : string list;
}

let checks () = { attempted = 0; failed_ops = Hashtbl.create 16; broken = [] }
let attempt c = c.attempted <- c.attempted + 1

let expect c ~op ok what =
  if not ok then begin
    if not (Hashtbl.mem c.failed_ops op) then
      Printf.eprintf "perfbench: check failed on %s: %s\n%!" op what;
    Hashtbl.replace c.failed_ops op ()
  end

let invariant c ok what =
  if not ok then begin
    Printf.eprintf "perfbench: invariant failed: %s\n%!" what;
    c.broken <- what :: c.broken
  end

let failed c = Hashtbl.length c.failed_ops
let correct c = failed c = 0 && c.broken = []

(* Human-readable summary line for a metric: its value, the statistic
   it is and how many samples that rests on. *)
let report name ~unit_ ~stat ~n value =
  Printf.printf "[perfbench] %-24s %14.6f %-5s (%s, n=%d)\n%!" name value unit_
    stat n

(* Every timed operation starts from a collected heap, so none pays for
   the garbage of the one before, and the peak heap reflects what the
   set-up and one operation need, not where major cycles happened to
   fall. *)
let collected () = Gc.full_major ()

(* Peak major heap of this process so far.  A run reads it at the end
   of its timed rounds, before the output checks and the repeated
   set-ups. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Recursively remove a scratch directory the benchmark created. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun ~work name ->
    incr n;
    let d = Filename.concat work (Printf.sprintf "%s-%d" name !n) in
    rm_rf d;
    d

(* Counts read from a metrics-only telemetry sink's registry.  The VM
   registers no per-run total for recompilations, so [vm.recompiles]
   sums the per-level counters. *)
let registry_counts tel =
  let mx = Telemetry.metrics tel in
  let c name = float_of_int (Metrics.value (Metrics.counter mx name)) in
  List.map
    (fun name -> m name "count" (c name))
    [
      "vm.yieldpoint.polls";
      "vm.ticks";
      "pep.samples.taken";
      "engine.ic.hits";
      "engine.ic.misses";
      "engine.fuse.sites";
    ]
  @ [
      m "vm.recompiles" "count"
        (c "vm.recompile.l0" +. c "vm.recompile.l1" +. c "vm.recompile.l2");
    ]
