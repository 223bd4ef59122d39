type t = (int * int, int ref) Hashtbl.t

let create () : t = Hashtbl.create 32

let record t ~caller ~callee =
  match Hashtbl.find_opt t (caller, callee) with
  | Some r -> incr r
  | None -> Hashtbl.replace t (caller, callee) (ref 1)

let weight t ~caller ~callee =
  match Hashtbl.find_opt t (caller, callee) with Some r -> !r | None -> 0

let callee_weight t ~callee =
  Hashtbl.fold
    (fun (_, ce) r acc -> if ce = callee then acc + !r else acc)
    t 0

let edges t =
  let l = Hashtbl.fold (fun (cr, ce) r acc -> (cr, ce, !r) :: acc) t [] in
  List.sort
    (fun (cra, cea, wa) (crb, ceb, wb) ->
      match compare wb wa with 0 -> compare (cra, cea) (crb, ceb) | c -> c)
    l

let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t 0

let copy t =
  let dst = create () in
  Hashtbl.iter (fun k r -> Hashtbl.replace dst k (ref !r)) t;
  dst

let to_lines t =
  List.map (fun (cr, ce, w) -> Fmt.str "%d %d %d" cr ce w) (edges t)

type parse_error = {
  file : string option;
  line : int;  (* 1-based position in the input *)
  text : string;
  reason : string;
}

let pp_parse_error ppf e =
  Fmt.pf ppf "%s" (Option.value e.file ~default:"<input>");
  if e.line > 0 then Fmt.pf ppf ":%d" e.line;
  Fmt.pf ppf ": %s" e.reason;
  if e.text <> "" then Fmt.pf ppf " (in %S)" e.text

let parse_line t line =
  if String.trim line = "" then Ok ()
  else
    match String.split_on_char ' ' (String.trim line) with
    | [ cr; ce; w ] -> (
        match
          (int_of_string_opt cr, int_of_string_opt ce, int_of_string_opt w)
        with
        | Some cr, Some ce, Some w when w > 0 ->
            Hashtbl.replace t (cr, ce) (ref w);
            Ok ()
        | _ -> Error "expected three integers with a positive weight")
    | _ -> Error "expected \"<caller> <callee> <weight>\""

let of_lines ?file lines =
  let t = create () in
  let rec go n = function
    | [] -> Ok t
    | raw :: rest -> (
        match parse_line t raw with
        | Ok () -> go (n + 1) rest
        | Error reason -> Error { file; line = n; text = String.trim raw; reason })
  in
  go 1 lines
