type config = { samples : int; stride : int; full_ag : bool }

let pep ~samples ~stride =
  assert (samples >= 1 && stride >= 1);
  { samples; stride; full_ag = false }

let timer_based = pep ~samples:1 ~stride:1
let never = { samples = 0; stride = 1; full_ag = false }

let arnold_grove ~samples ~stride =
  assert (samples >= 1 && stride >= 1);
  { samples; stride; full_ag = true }

let name c =
  if c.samples = 0 then "instr-only"
  else Fmt.str "%s(%d,%d)" (if c.full_ag then "AG" else "PEP") c.samples c.stride

let default = pep ~samples:64 ~stride:17

(* Accepts [name]'s output as well as the colon form; the counts are
   {!Spec} integers, so nothing trails them. *)
let parse s =
  let spec = String.lowercase_ascii (String.trim s) in
  let args =
    match String.index_opt spec '(' with
    | Some i when String.ends_with ~suffix:")" spec ->
        let inner = String.sub spec (i + 1) (String.length spec - i - 2) in
        String.sub spec 0 i :: String.split_on_char ',' inner
    | Some _ | None -> String.split_on_char ':' spec
  in
  let count axis x = Spec.read ~axis (Spec.int ~lo:1 ()) (String.trim x) in
  match (spec, args) with
  | ("none" | "instr-only"), _ -> Ok never
  | "timer", _ -> Ok timer_based
  | _, [ (("pep" | "ag") as kind); a; b ] -> (
      match (count "samples" a, count "stride" b) with
      | Ok samples, Ok stride -> Ok { samples; stride; full_ag = kind = "ag" }
      | Error e, _ | _, Error e -> Error e)
  | _ ->
      Error
        {
          Spec.axis = "sampling";
          value = s;
          reason = "expected PEP(S,T), AG(S,T), pep:S:T, ag:S:T, timer or instr-only";
        }

type t = {
  config : config;
  mutable rotation : int;  (* next initial skip amount, in [0, stride) *)
  mutable samples_left : int;  (* 0 = inactive *)
  mutable skip_left : int;
  mutable pending : bool;  (* a tick arrived mid-burst *)
  mutable taken : int;
  mutable skipped : int;
  mutable bursts : int;
}

let create config =
  {
    config;
    rotation = 0;
    samples_left = 0;
    skip_left = 0;
    pending = false;
    taken = 0;
    skipped = 0;
    bursts = 0;
  }

let start_burst t =
  t.samples_left <- t.config.samples;
  t.skip_left <- t.rotation;
  t.rotation <- (t.rotation + 1) mod t.config.stride;
  t.bursts <- t.bursts + 1

let activate t =
  if t.config.samples = 0 then ()
  else if t.samples_left > 0 then t.pending <- true
  else start_burst t

let active t = t.samples_left > 0

let step t =
  assert (t.samples_left > 0);
  if t.skip_left > 0 then begin
    t.skip_left <- t.skip_left - 1;
    t.skipped <- t.skipped + 1;
    `Skip
  end
  else begin
    t.samples_left <- t.samples_left - 1;
    t.taken <- t.taken + 1;
    if t.samples_left > 0 then begin
      if t.config.full_ag then t.skip_left <- t.config.stride - 1
    end
    else if t.pending then begin
      t.pending <- false;
      start_burst t
    end;
    `Take
  end

let stats t = (t.taken, t.skipped, t.bursts)
