(* Cumulative -> per-window deltas; see exp_window.mli. *)

let cumulative_paths (tables : Path_profile.table) =
  let rows = ref [] in
  Array.iteri
    (fun mi prof ->
      Path_profile.iter
        (fun (e : Path_profile.entry) ->
          if e.Path_profile.count > 0 then
            rows := (mi, e.Path_profile.path_id, e.Path_profile.count) :: !rows)
        prof)
    tables;
  List.sort compare !rows

let cumulative_edges (tables : Edge_profile.table) =
  let rows = ref [] in
  Array.iteri
    (fun mi prof ->
      List.iter
        (fun (br, (tk, nt)) -> rows := (mi, br, tk, nt) :: !rows)
        (Edge_profile.entries prof))
    tables;
  List.sort compare !rows

let delta3 tbl rows =
  List.filter_map
    (fun (a, b, c) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl (a, b)) in
      Hashtbl.replace tbl (a, b) c;
      if c - prev > 0 then Some (a, b, c - prev) else None)
    rows

let delta4 tbl rows =
  List.filter_map
    (fun (a, b, c, d) ->
      let pc, pd = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl (a, b)) in
      Hashtbl.replace tbl (a, b) (c, d);
      let dc = max 0 (c - pc) and dd = max 0 (d - pd) in
      if dc > 0 || dd > 0 then Some (a, b, dc, dd) else None)
    rows
