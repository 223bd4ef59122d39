(** Windowed collection over cumulative profile tables, shared by the
    fleet collector and the drift series ({!Exp_drift}).

    Both drive replay instances through collection windows of one
    application iteration each, under {!Exp_harness.compressed_cost},
    against advice from {!Exp_harness.make_env} run with the same cost
    model.  Replay never re-instruments, so cumulative counts are
    monotone and a window's delta is exact. *)

(** Rows [(method, path id, count)] of every positive count, sorted. *)
val cumulative_paths : Path_profile.table -> (int * int * int) list

(** Rows [(method, branch, taken, not taken)], sorted. *)
val cumulative_edges : Edge_profile.table -> (int * int * int * int) list

(** [delta3 cursor rows] is each row's growth since [cursor] last saw
    its [(a, b)] key, rows that did not grow dropped; [cursor] is
    updated to [rows]. *)
val delta3 :
  (int * int, int) Hashtbl.t -> (int * int * int) list -> (int * int * int) list

(** {!delta3} over two counts per key; a row is kept when either
    grew. *)
val delta4 :
  (int * int, int * int) Hashtbl.t ->
  (int * int * int * int) list ->
  (int * int * int * int) list
