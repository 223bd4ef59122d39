type counter = { mutable taken : int; mutable not_taken : int }

(* Branch ids are small dense ints per method (the bytecode compiler
   numbers a method's branches 0, 1, ...), so a table is an array
   indexed by branch id, grown on demand, with [absent] in the slots of
   ids never counted: an update is an index and a field add, and
   allocates nothing once its counter exists.  [present] counts the
   counters.

   [capacity], when set, bounds the number of distinct branches counted
   (the fixed-size table of paper §3.2): an update that would create a
   counter past the bound is dropped and counted in [overflow].  Updates
   to already-present branches always land. *)
type t = {
  mutable slots : counter array;
  mutable present : int;
  mutable capacity : int option;
  mutable overflow : int;
}

(* never handed out, never mutated *)
let absent = { taken = 0; not_taken = 0 }

let create () : t = { slots = [||]; present = 0; capacity = None; overflow = 0 }

let set_capacity t capacity = t.capacity <- capacity
let capacity t = t.capacity
let overflow t = t.overflow

let find t branch =
  if branch >= 0 && branch < Array.length t.slots then t.slots.(branch)
  else absent

let add t branch ~taken n =
  if branch < 0 then invalid_arg "Edge_profile.add: negative branch id";
  let c = find t branch in
  if c != absent then
    if taken then c.taken <- c.taken + n else c.not_taken <- c.not_taken + n
  else
    match t.capacity with
    | Some cap when t.present >= cap -> t.overflow <- t.overflow + 1
    | Some _ | None ->
        let len = Array.length t.slots in
        if branch >= len then begin
          let slots = Array.make (max (branch + 1) (2 * len)) absent in
          Array.blit t.slots 0 slots 0 len;
          t.slots <- slots
        end;
        t.slots.(branch) <-
          (if taken then { taken = n; not_taken = 0 }
           else { taken = 0; not_taken = n });
        t.present <- t.present + 1

let incr t branch ~taken = add t branch ~taken 1

let counter t branch =
  let c = find t branch in
  if c == absent then None else Some c

let freq t branch =
  let c = find t branch in
  c.taken + c.not_taken

let bias t branch =
  let c = find t branch in
  if c.taken + c.not_taken > 0 then
    Some (float_of_int c.taken /. float_of_int (c.taken + c.not_taken))
  else None

(* ascending, as every listing below needs *)
let fold f t acc =
  let acc = ref acc in
  for b = Array.length t.slots - 1 downto 0 do
    let c = t.slots.(b) in
    if c != absent then acc := f b c !acc
  done;
  !acc

let branch_ids t = fold (fun b _ acc -> b :: acc) t []
let entries t = fold (fun b c acc -> (b, (c.taken, c.not_taken)) :: acc) t []
let total t = fold (fun _ c acc -> acc + c.taken + c.not_taken) t 0
let is_empty t = total t = 0

let map_counters f t =
  Array.map (fun c -> if c == absent then absent else f c) t.slots

let copy t =
  {
    slots = map_counters (fun c -> { taken = c.taken; not_taken = c.not_taken }) t;
    present = t.present;
    capacity = t.capacity;
    overflow = t.overflow;
  }

let clear t =
  t.slots <- [||];
  t.present <- 0;
  t.overflow <- 0

let flip t =
  {
    (create ()) with
    slots = map_counters (fun c -> { taken = c.not_taken; not_taken = c.taken }) t;
    present = t.present;
  }

type table = t array

let create_table ~n_methods = Array.init n_methods (fun _ -> create ())
let copy_table tbl = Array.map copy tbl
let flip_table tbl = Array.map flip tbl
let table_total tbl = Array.fold_left (fun acc t -> acc + total t) 0 tbl
let table_overflow tbl = Array.fold_left (fun acc t -> acc + overflow t) 0 tbl

let to_lines tbl =
  let lines = ref [] in
  Array.iteri
    (fun mi t ->
      List.iter
        (fun (b, (tk, nt)) ->
          lines := Fmt.str "%d %d %d %d" mi b tk nt :: !lines)
        (entries t))
    tbl;
  List.rev !lines

(* Serialized branch ids come from bytecode, which numbers a method's
   branches densely; a larger id is damage, not a branch. *)
let max_branch_id = (1 lsl 24) - 1

let parse_line tbl line =
  if String.trim line = "" then Ok ()
  else
    let n_methods = Array.length tbl in
    match String.split_on_char ' ' (String.trim line) with
    | [ mi; b; tk; nt ] -> (
        match
          ( int_of_string_opt mi,
            int_of_string_opt b,
            int_of_string_opt tk,
            int_of_string_opt nt )
        with
        | Some mi, Some b, Some tk, Some nt
          when mi >= 0 && mi < n_methods && b >= 0 && b <= max_branch_id
               && tk >= 0 && nt >= 0 ->
            add tbl.(mi) b ~taken:true tk;
            add tbl.(mi) b ~taken:false nt;
            Ok ()
        | _ ->
            Error
              "expected a method index in range, a branch id in range and \
               non-negative counters")
    | _ -> Error "expected \"<method> <branch> <taken> <not-taken>\""

let of_lines ~n_methods lines =
  let tbl = create_table ~n_methods in
  List.iter
    (fun line ->
      match parse_line tbl line with
      | Ok () -> ()
      | Error _ -> failwith ("Edge_profile.of_lines: bad line: " ^ line))
    lines;
  tbl

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (b, (tk, nt)) -> Fmt.pf ppf "br%d: taken=%d not-taken=%d@," b tk nt)
    (entries t);
  Fmt.pf ppf "@]"
