(* The one clause grammar.  See spec.mli. *)

type error = { axis : string; value : string; reason : string }

let error_to_string e =
  Fmt.str "axis %s = %s rejected: %s" e.axis e.value e.reason

type 'v value = { read : string -> ('v, string) result; show : 'v -> string }

let is_digit c = c >= '0' && c <= '9'

(* OCaml's own readers also take [0x], [0b], [_] separators and
   [nan]; a knob takes plain decimal text only, so a value prints back
   as the text that was read. *)
let decimal s =
  let n = String.length s in
  let start = if n > 0 && s.[0] = '-' then 1 else 0 in
  n > start && String.for_all is_digit (String.sub s start (n - start))

let int ?(lo = min_int) ?(hi = max_int) () =
  let expected =
    if hi < max_int then Fmt.str "expected an integer in [%d, %d]" lo hi
    else if lo > min_int then Fmt.str "expected an integer >= %d" lo
    else "expected an integer"
  in
  {
    read =
      (fun s ->
        match if decimal s then int_of_string_opt s else None with
        | Some n when n >= lo && n <= hi -> Ok n
        | Some _ | None -> Error expected);
    show = string_of_int;
  }

let float f =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec f in
    if prec >= 17 || float_of_string s = f then s else go (prec + 1)
  in
  go 12

let fraction =
  let numeric c = is_digit c || String.contains ".eE+-" c in
  {
    read =
      (fun s ->
        match if String.for_all numeric s then float_of_string_opt s else None with
        | Some f when f >= 0. && f <= 1. -> Ok f
        | Some _ | None -> Error "expected a number in [0, 1]");
    show = float;
  }

let name =
  {
    read = (fun s -> if s = "" then Error "expected a non-empty name" else Ok s);
    show = Fun.id;
  }

let enum cases =
  {
    read =
      (fun s ->
        match List.assoc_opt s cases with
        | Some v -> Ok v
        | None ->
            Error
              (Fmt.str "expected one of %s" (String.concat ", " (List.map fst cases))));
    show = (fun v -> fst (List.find (fun (_, v') -> v' = v) cases));
  }

let read ~axis v s =
  Result.map_error (fun reason -> { axis; value = s; reason }) (v.read s)

let split sep s =
  List.filter (( <> ) "") (List.map String.trim (String.split_on_char sep s))

let each parse s =
  match split ',' s with
  | [] ->
      Error { axis = "list"; value = s; reason = "expected one or more values" }
  | xs ->
      List.fold_right
        (fun x acc ->
          match (parse x, acc) with
          | Ok y, Ok ys -> Ok (y :: ys)
          | (Error _ as e), _ -> e
          | Ok _, (Error _ as e) -> e)
        xs (Ok [])

let list v =
  {
    read =
      (fun s -> Result.map_error (fun e -> e.reason) (each (read ~axis:"" v) s));
    show = (fun xs -> String.concat "," (List.map v.show xs));
  }

let some v =
  {
    read = (fun s -> Result.map Option.some (v.read s));
    show = (function Some x -> v.show x | None -> "");
  }

(* ---------------------------- clause lists ------------------------- *)

type 'r field = {
  key : string;
  bare : bool;  (* a flag: the clause is the key alone *)
  set : 'r -> string -> ('r, string) result;
  print : 'r -> string option;
}

let field ?(shown = fun _ -> true) key v get set =
  {
    key;
    bare = false;
    set = (fun r s -> Result.map (set r) (v.read s));
    print = (fun r -> if shown r then Some (key ^ "=" ^ v.show (get r)) else None);
  }

let flag key get set =
  {
    key;
    bare = true;
    set = (fun r _ -> Ok (set r true));
    print = (fun r -> if get r then Some key else None);
  }

let decode fields init clauses =
  let rec go seen r = function
    | [] -> Ok r
    | clause :: rest -> (
        let key, value =
          match String.index_opt clause '=' with
          | Some i ->
              let n = String.length clause - i - 1 in
              (String.sub clause 0 i, Some (String.sub clause (i + 1) n))
          | None -> (clause, None)
        in
        let reject reason =
          Error { axis = key; value = Option.value ~default:"" value; reason }
        in
        match List.find_opt (fun f -> f.key = key) fields with
        | None -> reject "unknown key"
        | Some _ when List.mem key seen -> reject "duplicate key"
        | Some f -> (
            match (f.bare, value) with
            | true, Some _ -> reject "a flag takes no value"
            | false, None -> reject (Fmt.str "expected %s=VALUE" key)
            | _, _ -> (
                match f.set r (Option.value ~default:"" value) with
                | Ok r -> go (key :: seen) r rest
                | Error reason -> reject reason)))
  in
  go [] init clauses

let encode fields r = List.filter_map (fun f -> f.print r) fields

(* -------------------------------- text ----------------------------- *)

let lines text =
  List.filter_map
    (fun (n, line) ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      match String.trim line with "" -> None | line -> Some (n, line))
    (List.mapi (fun i line -> (i + 1, line)) (String.split_on_char '\n' text))

let map_lines f text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (n, line) :: rest -> (
        match f line with
        | Ok v -> go (v :: acc) rest
        | Error e -> Error { e with reason = Fmt.str "%s (line %d)" e.reason n })
  in
  go [] (lines text)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error reason -> Error { axis = "file"; value = path; reason }
