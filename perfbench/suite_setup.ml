(* Set-up shared by the two suite workloads ([replay] and [adaptive]):
   the 14 suite programs at their default sizes, each built, verified
   and given advice by a two-iteration adaptive warmup. *)

let advice_lines (e : Exp_harness.env) = Advice.to_lines e.Exp_harness.advice

(* One [Exp_pool.suite_envs ~jobs:1], timed on [clock]. *)
let envs ~seed clock =
  Pb.timed_setup clock (fun () -> Exp_pool.suite_envs ~jobs:1 ~seed ())

(* Set-ups repeated after an untraced run's timed rounds, so that
   [Pb.setup_s] rests on several. *)
let more = 5

(* The set-up [more] more times, for its time only.  Each must produce
   the same advice as the [first] set-up did, or later timings would
   compare different programs. *)
let repeat chk ~seed clock first =
  for _ = 1 to more do
    let again = envs ~seed clock in
    Pb.invariant chk
      (List.map advice_lines again = List.map advice_lines first)
      "suite set-up is not deterministic"
  done

(* Set-up repetitions behind each per-layer set-up time; the layer
   times are their medians. *)
let reps = 3

(* The set-up layers, timed call by call: [Exp_harness.make_env]
   rebuilt from public calls for every program.  Each rebuilt advice
   must equal the one [envs] produced. *)
let layers chk envs =
  let one (e : Exp_harness.env) =
    let w = e.Exp_harness.workload in
    let build, program =
      Pb.time (fun () -> Workload.program ~size:e.Exp_harness.size w)
    in
    let verify, () = Pb.time (fun () -> Verify.program program) in
    let warmup, advice =
      Pb.time (fun () ->
          let st = Machine.create ~seed:e.Exp_harness.seed program in
          let d = Driver.create Driver.default_options st in
          ignore (Driver.run d);
          ignore (Driver.run d);
          Driver.advice d)
    in
    Pb.invariant chk
      (Advice.to_lines advice = advice_lines e)
      (Printf.sprintf "rebuilt warmup of %s gives different advice"
         w.Workload.name);
    (build, verify, warmup)
  in
  let samples = List.init reps (fun _ -> List.map one envs) in
  let total f =
    Pb.median
      (List.map (fun per_prog -> Pb.sum (List.map f per_prog)) samples)
  in
  [
    Pb.m "workloads.build_s" "s" (total (fun (b, _, _) -> b));
    Pb.m "bytecode.verify_s" "s" (total (fun (_, v, _) -> v));
    Pb.m "vm.warmup_s" "s" (total (fun (_, _, w) -> w));
  ]
