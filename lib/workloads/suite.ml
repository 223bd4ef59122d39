let all =
  [
    Spec_jvm98.compress;
    Spec_jvm98.jess;
    Spec_jvm98.db;
    Spec_jvm98.javac;
    Spec_jvm98.mpegaudio;
    Spec_jvm98.mtrt;
    Spec_jvm98.jack;
    Pseudojbb.pseudojbb;
    Dacapo.antlr;
    Dacapo.bloat;
    Dacapo.fop;
    Dacapo.jython;
    Dacapo.pmd;
    Dacapo.xalan;
  ]

let find name = List.find (fun (w : Workload.t) -> w.name = name) all
let names = List.map (fun (w : Workload.t) -> w.name) all

let resolve name =
  match List.find_opt (fun (w : Workload.t) -> w.name = name) all with
  | Some w -> Ok w
  | None -> (
      match Phased.find name with
      | Some w -> Ok w
      | None ->
          if Wgen.is_spec name then
            Result.map_error
              (fun e -> "gen spec: " ^ Spec.error_to_string e)
              (Wgen.resolve name)
          else
            Error
              (Fmt.str
                 "unknown workload %S (expected one of %s, a phased workload \
                  %s, or a gen: spec)"
                 name
                 (String.concat ", " names)
                 (String.concat ", "
                    (List.map (fun (w : Workload.t) -> w.name) Phased.all))))
