(* The shared clause grammar: value readers, the clause-list codec's
   rejections, the exact float printer and the line reader.  Each
   grammar built on it has its own round-trip property next to its
   other tests. *)

let check = Alcotest.check
let cb = Alcotest.bool

type r = { n : int; on : bool; p : float option }

let zero = { n = 0; on = false; p = None }

let fields =
  Spec.
    [
      field "n" (int ~lo:0 ~hi:9 ()) (fun r -> r.n) (fun r n -> { r with n });
      flag "on" (fun r -> r.on) (fun r on -> { r with on });
      field
        ~shown:(fun r -> r.p <> None)
        "p" (some fraction)
        (fun r -> r.p)
        (fun r p -> { r with p });
    ]

let test_codec () =
  let decode clauses = Spec.decode fields zero clauses in
  check cb "decodes" true
    (decode [ "p=0.5"; "on"; "n=3" ] = Ok { n = 3; on = true; p = Some 0.5 });
  check (Alcotest.list Alcotest.string) "encodes in table order"
    [ "n=3"; "on"; "p=0.5" ]
    (Spec.encode fields { n = 3; on = true; p = Some 0.5 });
  check (Alcotest.list Alcotest.string) "hidden clauses" [ "n=0" ]
    (Spec.encode fields zero);
  List.iter
    (fun (clauses, axis) ->
      match decode clauses with
      | Ok _ -> Alcotest.failf "accepted %s" (String.concat "," clauses)
      | Error e ->
          check Alcotest.string (String.concat "," clauses) axis e.Spec.axis)
    [
      ([ "q=1" ], "q");
      ([ "n=1"; "n=2" ], "n");
      ([ "on"; "on" ], "on");
      ([ "on=1" ], "on");
      ([ "n" ], "n");
      ([ "n=10" ], "n");
      ([ "n=3x" ], "n");
      ([ "n=+3" ], "n");
      ([ "n=0x3" ], "n");
      ([ "n=" ], "n");
      ([ "p=1.5" ], "p");
      ([ "p=0x1p-1" ], "p");
      ([ "p=inf" ], "p");
    ]

let test_values () =
  let reads v s = Result.is_ok (v.Spec.read s) in
  check cb "negative ints" true (reads (Spec.int ()) "-12");
  check cb "bare minus" false (reads (Spec.int ()) "-");
  check cb "overflow" false (reads (Spec.int ()) "99999999999999999999999");
  check cb "empty name" false (reads Spec.name "");
  let colours = Spec.list (Spec.enum [ ("red", 1); ("blue", 2) ]) in
  check cb "enum list" true (colours.Spec.read "red,blue,red" = Ok [ 1; 2; 1 ]);
  check cb "unknown element" false (reads colours "red,green");
  check cb "empty list" false (reads colours "");
  check Alcotest.string "list prints" "blue,red" (colours.Spec.show [ 2; 1 ])

let test_float () =
  List.iter
    (fun (f, s) -> check Alcotest.string s s (Spec.float f))
    [
      (0.1, "0.1");
      (0.25, "0.25");
      (0.3, "0.3");
      (1., "1");
      (0., "0");
      (1e-05, "1e-05");
      (0.1 +. 0.2, "0.30000000000000004");
    ]

let prop_float_exact =
  QCheck.Test.make ~count:1000 ~name:"float prints the shortest exact text"
    QCheck.(
      make ~print:string_of_float
        Gen.(oneof [ float; float_range 0. 1.; map (fun n -> float_of_int n /. 1000.) nat ]))
    (fun f ->
      Float.is_nan f
      ||
      let s = Spec.float f in
      float_of_string s = f
      && (String.equal s (Printf.sprintf "%.12g" f)
         || float_of_string (Printf.sprintf "%.12g" f) <> f))

let test_lines () =
  let text = "# header\n a=1, b=2 \n\n  # indented comment\nc=3 # trailing\n" in
  check
    Alcotest.(list (pair int string))
    "numbered, uncommented, trimmed"
    [ (2, "a=1, b=2"); (5, "c=3") ]
    (Spec.lines text);
  check (Alcotest.list Alcotest.string) "split trims and drops blanks"
    [ "a=1"; "b=2" ] (Spec.split ',' " a=1, ,b=2 ,");
  match Spec.map_lines (fun l -> Spec.decode fields zero (Spec.split ',' l)) "n=1\n\nn=12\n" with
  | Error e ->
      check Alcotest.string "axis" "n" e.Spec.axis;
      check cb "line named" true (String.ends_with ~suffix:"(line 3)" e.Spec.reason)
  | Ok _ -> Alcotest.fail "bad line accepted"

let suite =
  [
    Alcotest.test_case "clause codec: decode, encode, rejects" `Quick test_codec;
    Alcotest.test_case "value readers" `Quick test_values;
    Alcotest.test_case "float keeps %.12g text when exact" `Quick test_float;
    QCheck_alcotest.to_alcotest prop_float_exact;
    Alcotest.test_case "line reader" `Quick test_lines;
  ]
