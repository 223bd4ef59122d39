(* Sampling strategy state machines (paper §4.4, Figure 5). *)

let check = Alcotest.check
let ci = Alcotest.int

(* Drive a sampler over [n] opportunities, activating on the given
   opportunity indices; returns the take/skip pattern as a string like
   ".TT.S" ('T' take, 'S' skip-stride, '.' inactive). *)
let pattern config ~activations n =
  let s = Sampling.create config in
  let buf = Buffer.create n in
  for k = 0 to n - 1 do
    if List.mem k activations then Sampling.activate s;
    if Sampling.active s then
      match Sampling.step s with
      | `Take -> Buffer.add_char buf 'T'
      | `Skip -> Buffer.add_char buf 'S'
    else Buffer.add_char buf '.'
  done;
  Buffer.contents buf

let test_timer_based () =
  check Alcotest.string "one sample per tick" "T....T...."
    (pattern Sampling.timer_based ~activations:[ 0; 5 ] 10)

let test_never () =
  check Alcotest.string "never samples" "...."
    (pattern Sampling.never ~activations:[ 0; 2 ] 4)

let test_simplified_ag () =
  (* PEP(4,3): tick 1 strides 0 then takes 4; tick 2 strides 1 then takes
     4; tick 3 strides 2. *)
  let c = Sampling.pep ~samples:4 ~stride:3 in
  check Alcotest.string "rotating initial stride" "TTTT..STTTT.SSTTTT"
    (pattern c ~activations:[ 0; 6; 12 ] 18)

let test_full_ag () =
  (* AG(3,3): stride between every sample: skip 0 then T S S T S S T *)
  let c = Sampling.arnold_grove ~samples:3 ~stride:3 in
  check Alcotest.string "stride between samples" "TSSTSST..."
    (pattern c ~activations:[ 0 ] 10);
  (* second burst starts with rotated skip of 1 *)
  let c = Sampling.arnold_grove ~samples:2 ~stride:2 in
  check Alcotest.string "rotation persists" "TST..STST."
    (pattern c ~activations:[ 0; 5 ] 10)

let test_pending_mid_burst () =
  (* a tick during a burst queues exactly one follow-up burst *)
  let c = Sampling.pep ~samples:3 ~stride:1 in
  check Alcotest.string "burst chains once" "TTTTTT...."
    (pattern c ~activations:[ 0; 1 ] 10)

let test_stats () =
  let s = Sampling.create (Sampling.pep ~samples:2 ~stride:2) in
  Sampling.activate s;
  ignore (Sampling.step s);
  ignore (Sampling.step s);
  Sampling.activate s;
  ignore (Sampling.step s);
  ignore (Sampling.step s);
  ignore (Sampling.step s);
  let taken, skipped, bursts = Sampling.stats s in
  check ci "taken" 4 taken;
  check ci "skipped" 1 skipped;
  check ci "bursts" 2 bursts

let test_names () =
  check Alcotest.string "pep name" "PEP(64,17)"
    (Sampling.name (Sampling.pep ~samples:64 ~stride:17));
  check Alcotest.string "ag name" "AG(4,2)"
    (Sampling.name (Sampling.arnold_grove ~samples:4 ~stride:2));
  check Alcotest.string "never name" "instr-only" (Sampling.name Sampling.never);
  check Alcotest.string "timer name" "PEP(1,1)" (Sampling.name Sampling.timer_based)

(* Every textual form the CLI prints must parse back: [--help] shows
   the default as [Sampling.name Sampling.default]. *)
let test_parse_round_trip () =
  let config =
    Alcotest.testable
      (fun ppf c -> Fmt.string ppf (Sampling.name c))
      ( = )
  in
  let parses label expected text =
    match Sampling.parse text with
    | Ok c -> check config (label ^ ": " ^ text) expected c
    | Error msg -> Alcotest.failf "%s: %S rejected: %s" label text msg
  in
  List.iter
    (fun (label, c) ->
      parses label c (Sampling.name c);
      parses label c (String.lowercase_ascii (Sampling.name c)))
    [
      ("pep", Sampling.pep ~samples:64 ~stride:17);
      ("pep", Sampling.pep ~samples:3 ~stride:1);
      ("ag", Sampling.arnold_grove ~samples:4 ~stride:2);
      ("timer", Sampling.timer_based);
      ("instr-only", Sampling.never);
      ("cli default", Sampling.default);
    ];
  parses "colon form" (Sampling.pep ~samples:64 ~stride:17) "pep:64:17";
  parses "colon form" (Sampling.arnold_grove ~samples:8 ~stride:3) "ag:8:3";
  parses "timer" Sampling.timer_based "timer";
  parses "none" Sampling.never "none";
  List.iter
    (fun bad ->
      check Alcotest.bool ("rejects " ^ bad) true
        (Result.is_error (Sampling.parse bad)))
    [ "PEP(0,17)"; "pep:0:5"; "PEP(64)"; "PEP(64,17"; "XYZ(1,1)"; "ag:1:0"; "" ]

let suite =
  [
    Alcotest.test_case "timer-based" `Quick test_timer_based;
    Alcotest.test_case "never" `Quick test_never;
    Alcotest.test_case "simplified Arnold-Grove" `Quick test_simplified_ag;
    Alcotest.test_case "full Arnold-Grove" `Quick test_full_ag;
    Alcotest.test_case "pending mid-burst" `Quick test_pending_mid_burst;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "parse (name c) = c" `Quick test_parse_round_trip;
  ]
