(* The shared argument spec table.

   Every pepsim subcommand draws its common flags from here — one
   definition per flag, one docstring, one default — so `pepsim fleet`,
   `chaos`, `experiments`, `trace` and `top` can't drift apart on what
   `--seed`, `--jobs`, `--cache-dir` or `--out` mean.  Flags whose doc
   or default legitimately varies per command ([out], [scale]) are
   parameterized constructors rather than copies. *)

open Cmdliner

(* --- value conversions --------------------------------------------- *)

(* One {!Spec} grammar as a cmdliner converter: a rejected value is a
   usage error (exit 2) that prints the structured {!Spec.error}. *)
let conv parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg (Spec.error_to_string e)) (parse s)),
      fun ppf v -> Fmt.string ppf (print v) )

let of_value ~axis (v : _ Spec.value) = conv (Spec.read ~axis v) v.Spec.show

(* A count of at least one. *)
let positive axis = of_value ~axis (Spec.int ~lo:1 ())

(* A repeatable, comma-separable option: every occurrence's elements,
   in order; [[]] when the option is absent. *)
let repeated ~flag ~docv ~doc parse =
  let each = conv (Spec.each parse) (fun _ -> "") and names = [ flag ] in
  Term.(
    const List.concat $ Arg.(value & opt_all each [] & info names ~docv ~doc))

(* [repeated] over a fixed set of named choices. *)
let choices ~flag ~docv ~doc named =
  repeated ~flag ~docv ~doc (Spec.read ~axis:flag (Spec.enum named))

let sampling_conv = conv Sampling.parse Sampling.name

(* --- the table ----------------------------------------------------- *)

let sampling_arg =
  let doc =
    "Sampling configuration: $(b,PEP\\(SAMPLES,STRIDE\\)) or \
     $(b,pep:SAMPLES:STRIDE), $(b,AG\\(SAMPLES,STRIDE\\)) or \
     $(b,ag:SAMPLES:STRIDE), $(b,timer), or $(b,instr-only)."
  in
  Arg.(
    value
    & opt sampling_conv Sampling.default
    & info [ "sampling" ] ~docv:"SPEC" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload PRNG seed.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Run the $(b,Pep_check) static passes and profile lint over the \
           results and exit nonzero on any error.")

let faults_arg =
  let doc =
    "Deterministic fault plan: comma-separated clauses like \
     $(b,seed=7,path-cap=64,compile-fail=0.2,sample-overrun=0.1,corrupt=0.5) \
     (also $(b,noop), $(b,edge-cap=N), $(b,compile-retries=N), \
     $(b,compile-backoff=N)); fleet-level sites: $(b,crash=P), \
     $(b,crash-restarts=N), $(b,torn-write=P), $(b,straggler=P), \
     $(b,straggler-timeout=N), $(b,seg-corrupt=P), $(b,seg-retries=N); \
     $(b,@FILE) reads clauses from a file.  The empty spec injects \
     nothing and is bit-identical to omitting the flag."
  in
  let plan = conv Fault_plan.parse Fault_plan.key in
  Arg.(value & opt plan Fault_plan.empty & info [ "faults" ] ~docv:"SPEC" ~doc)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard experiment runs across N parallel worker domains.  \
           Results are bit-identical to $(b,--jobs) $(i,1).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist completed runs to $(i,DIR) and recall them on later \
           invocations without re-executing.  Stale or damaged entries \
           are reported and recomputed.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore $(b,--cache-dir): neither read nor write persisted runs.")

let size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "size" ] ~docv:"N" ~doc:"Workload size (default per benchmark).")

let iters_arg =
  Arg.(
    value & opt int 2
    & info [ "iters" ] ~docv:"N" ~doc:"Application iterations to run.")

let advice_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "advice" ] ~docv:"FILE"
        ~doc:
          "Replay this advice file (see $(b,pepsim profiles --out)) \
           instead of running the adaptive system.")

let kind_arg =
  Arg.(
    value
    & opt (enum [ ("paths", `Paths); ("edges", `Edges); ("dcg", `Dcg) ]) `Paths
    & info [ "kind" ] ~docv:"KIND"
        ~doc:
          "Profile to render: $(b,paths) (sampled path profile), $(b,edges) \
           (sampled edge profile) or $(b,dcg) (tick-sampled call graph).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit JSON instead of folded-stack text.")

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~docv:"N" ~doc:"Show only the N hottest stacks.")

(* per-command doc, one spelling of the flag *)
let out_arg ~docv ~doc =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv ~doc)

let scale_arg ~default =
  Arg.(
    value & opt float default
    & info [ "scale" ] ~docv:"F" ~doc:"Scale workload sizes by F.")

let workload_name_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NAME"
        ~doc:
          "Benchmark name (see $(b,pepsim list)), a phased workload, or a \
           $(b,gen:) spec string (see $(b,pepsim gen)).")

(* --- shared helpers ------------------------------------------------ *)

let find_workload name =
  match Suite.resolve name with
  | Ok w -> w
  | Error msg ->
      Printf.eprintf "%s; try `pepsim list` or `pepsim gen describe`\n" msg;
      exit 2

(* Comma-separable *workload* lists: a [gen:] spec itself contains
   commas, so axis fragments (key=value, not themselves a spec) are
   re-attached to the preceding gen: fragment instead of being taken
   for workload names. *)
let split_workloads xs =
  List.rev
    (List.fold_left
       (fun acc part ->
         match acc with
         | prev :: rest
           when Wgen.is_spec prev && (not (Wgen.is_spec part))
                && String.contains part '=' ->
             (prev ^ "," ^ part) :: rest
         | _ -> part :: acc)
       [] (List.concat_map (Spec.split ',') xs))
