type entry = {
  path_id : int;
  mutable count : int;
  mutable edges : Cfg.edge list option;
  mutable n_branches : int;
  mutable arms : int array;
}

(* Keys are ints: the specialised table compares without the
   polymorphic [compare] and hashes exactly as [Hashtbl.hash], so
   iteration order is that of a generic table. *)
module Tbl = Hashtbl.Make (Int)

(* [capacity], when set, bounds the number of distinct paths the table
   stores (the fixed-size table of paper §3.2): an update that would
   create an entry past the bound is dropped and counted in [overflow].
   Updates to already-present paths always land. *)
type t = {
  tbl : entry Tbl.t;
  mutable capacity : int option;
  mutable overflow : int;
}

let create () : t = { tbl = Tbl.create 32; capacity = None; overflow = 0 }

let set_capacity t capacity = t.capacity <- capacity
let capacity t = t.capacity
let overflow t = t.overflow

exception Full

let fresh t path_id =
  let e = { path_id; count = 0; edges = None; n_branches = -1; arms = [||] } in
  Tbl.replace t.tbl path_id e;
  e

(* Hits allocate nothing: [Tbl.find] returns the entry itself where
   [find_opt] would box it. *)
let entry t path_id =
  match Tbl.find t.tbl path_id with
  | e -> e
  | exception Not_found -> fresh t path_id

let bounded_entry t path_id =
  match Tbl.find t.tbl path_id with
  | e -> e
  | exception Not_found -> (
      match t.capacity with
      | Some cap when Tbl.length t.tbl >= cap ->
          t.overflow <- t.overflow + 1;
          raise Full
      | Some _ | None -> fresh t path_id)

let add t path_id n =
  match bounded_entry t path_id with
  | e -> e.count <- e.count + n
  | exception Full -> ()

let incr t path_id = add t path_id 1
let find t path_id = Tbl.find_opt t.tbl path_id

(* Two passes over the edges, so the array is the only allocation. *)
let arms_of edges =
  let n =
    List.fold_left
      (fun n (ce : Cfg.edge) ->
        match ce.attr with
        | Cfg.Taken _ | Cfg.Not_taken _ -> n + 1
        | Cfg.Seq -> n)
      0 edges
  in
  let arms = Array.make n 0 in
  let rec fill i = function
    | [] -> ()
    | (ce : Cfg.edge) :: rest -> (
        match ce.attr with
        | Cfg.Taken br ->
            arms.(i) <- (2 * br) + 1;
            fill (i + 1) rest
        | Cfg.Not_taken br ->
            arms.(i) <- 2 * br;
            fill (i + 1) rest
        | Cfg.Seq -> fill i rest)
  in
  fill 0 edges;
  arms

let memoize_arms e edges =
  e.arms <- arms_of edges;
  e.n_branches <- Array.length e.arms

let memoize e edges =
  e.edges <- Some edges;
  memoize_arms e edges

let entries t =
  List.sort
    (fun a b -> compare a.path_id b.path_id)
    (Tbl.fold (fun _ e acc -> e :: acc) t.tbl [])

let total t = Tbl.fold (fun _ e acc -> acc + e.count) t.tbl 0
let n_distinct t = Tbl.length t.tbl
let is_empty t = Tbl.length t.tbl = 0

let clear t =
  Tbl.reset t.tbl;
  t.overflow <- 0

let iter f t = Tbl.iter (fun _ e -> f e) t.tbl

type table = t array

let create_table ~n_methods = Array.init n_methods (fun _ -> create ())
let table_total tbl = Array.fold_left (fun acc t -> acc + total t) 0 tbl
let table_overflow tbl = Array.fold_left (fun acc t -> acc + overflow t) 0 tbl

let to_lines tbl =
  let lines = ref [] in
  Array.iteri
    (fun mi t ->
      List.iter
        (fun e ->
          if e.count > 0 then
            lines := Fmt.str "%d %d %d" mi e.path_id e.count :: !lines)
        (entries t))
    tbl;
  List.rev !lines

let parse_line tbl line =
  let bad () =
    Error "expected \"<method-index> <path-id> <count>\" with count > 0"
  in
  if String.trim line = "" then Ok ()
  else
    match String.split_on_char ' ' (String.trim line) with
    | [ mi; pid; count ] -> (
        match
          (int_of_string_opt mi, int_of_string_opt pid, int_of_string_opt count)
        with
        | Some mi, Some pid, Some count
          when mi >= 0 && mi < Array.length tbl && pid >= 0 && count > 0 ->
            add tbl.(mi) pid count;
            Ok ()
        | _ -> bad ())
    | _ -> bad ()

let of_lines ~n_methods lines =
  let tbl = create_table ~n_methods in
  List.iter
    (fun line ->
      match parse_line tbl line with
      | Ok () -> ()
      | Error _ -> failwith ("Path_profile.of_lines: bad line: " ^ line))
    lines;
  tbl

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun e -> Fmt.pf ppf "path %d: count=%d branches=%d@," e.path_id e.count e.n_branches)
    (entries t);
  Fmt.pf ppf "@]"
