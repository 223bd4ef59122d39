type path_profiler = {
  hooks : Interp.hooks;
  table : Path_profile.table;
  plans : Profile_hooks.plans;
}

let counting_profiler ~mode ~number ~count_cost st =
  let plans = Profile_hooks.make_plans ~mode ~number st in
  let table =
    Path_profile.create_table ~n_methods:(Array.length st.Machine.methods)
  in
  let on_path_end _st (frame : Interp.frame) ~path_id =
    Path_profile.incr table.(frame.fmeth) path_id
  in
  let hooks = Profile_hooks.path_hooks ~plans ~count_cost ~on_path_end () in
  { hooks; table; plans }

let perfect_path ?(number = fun _ dag -> Numbering.ball_larus dag) st =
  counting_profiler ~mode:Dag.Loop_header ~number ~count_cost:`Hash st

let classic_blpp ?(number = fun _ dag -> Numbering.ball_larus dag) st =
  counting_profiler ~mode:Dag.Back_edge ~number ~count_cost:`Array st

type edge_profiler = { ehooks : Interp.hooks; etable : Edge_profile.table }

let perfect_edge st =
  let etable =
    Edge_profile.create_table ~n_methods:(Array.length st.Machine.methods)
  in
  { ehooks = Profile_hooks.edge_count_hooks st ~table:etable; etable }

let resolve_entry plans (table : Path_profile.table) ~meth ~path_id =
  let e = Path_profile.entry table.(meth) path_id in
  (match e.Path_profile.edges with
  | Some _ -> ()
  | None -> (
      match plans.(meth) with
      | None -> Path_profile.memoize e []
      | Some plan ->
          Path_profile.memoize e
            (Reconstruct.cfg_edges plan.Instrument.numbering path_id)));
  e

let n_branches_resolver plans table ~meth ~path_id =
  (resolve_entry plans table ~meth ~path_id).Path_profile.n_branches

let edges_of_paths ~n_methods plans (table : Path_profile.table) =
  let etable = Edge_profile.create_table ~n_methods in
  Array.iteri
    (fun meth prof ->
      Path_profile.iter
        (fun (e : Path_profile.entry) ->
          if e.count > 0 then begin
            let resolved = resolve_entry plans table ~meth ~path_id:e.path_id in
            List.iter
              (fun (ce : Cfg.edge) ->
                match ce.attr with
                | Cfg.Taken br ->
                    Edge_profile.add etable.(meth) br ~taken:true e.count
                | Cfg.Not_taken br ->
                    Edge_profile.add etable.(meth) br ~taken:false e.count
                | Cfg.Seq -> ())
              (Option.value ~default:[] resolved.Path_profile.edges)
          end)
        prof)
    table;
  etable
