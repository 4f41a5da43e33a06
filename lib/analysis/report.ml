module Json = Kex_service.Json
module Cost_model = Kex_sim.Cost_model

let schema = "kexclusion-lint/v1"

let model_name = function
  | Cost_model.Cache_coherent -> "cc"
  | Cost_model.Distributed -> "dsm"

let finding_json (f : Finding.t) =
  Json.Obj
    [ ("check", Json.String (Finding.id f.Finding.check));
      ("site", Json.String f.Finding.site);
      ("pid", match f.Finding.pid with Some p -> Json.Int p | None -> Json.Null);
      ("layer", Json.String (if Finding.is_static f.Finding.check then "static" else "dynamic"));
      ("waived", Json.Bool f.Finding.waived);
      ("detail", Json.String f.Finding.detail);
      ("witness", Json.List (List.map (fun l -> Json.String l) f.Finding.witness)) ]

let report_json (r : Lint.report) =
  let s = r.Lint.r_subject in
  Json.Obj
    [ ("subject", Json.String s.Lint.sub_name);
      ("model", Json.String (model_name s.Lint.sub_model));
      ("n", Json.Int s.Lint.sub_n);
      ("k", Json.Int s.Lint.sub_k);
      ("clean", Json.Bool (Lint.clean r));
      ("findings", Json.List (List.map finding_json r.Lint.r_findings)) ]

let to_json ?(mutants = []) reports =
  Json.Obj
    [ ("schema", Json.String schema);
      ("git_rev", Json.String (Kex_service.Provenance.git_rev ()));
      ("host", Json.String (Kex_service.Provenance.hostname ()));
      ("reports", Json.List (List.map report_json reports));
      ( "mutants",
        Json.List
          (List.map
             (fun (m, r, killed) ->
               match report_json r with
               | Json.Obj fields ->
                   Json.Obj
                     (("mutant", Json.String m.Mutants.m_name)
                     :: ("expected", Json.String (Finding.id m.Mutants.m_expected))
                     :: ("killed", Json.Bool killed)
                     :: fields)
               | j -> j)
             mutants) ) ]

(* ------------------------------------------------------------------ *)
(* Human-readable table.                                               *)

let summarize_findings fs =
  match fs with
  | [] -> "-"
  | fs ->
      let tally = Hashtbl.create 8 in
      List.iter
        (fun (f : Finding.t) ->
          let key = Finding.id f.Finding.check ^ if f.Finding.waived then "(waived)" else "" in
          Hashtbl.replace tally key (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
        fs;
      Hashtbl.fold (fun k c acc -> Printf.sprintf "%s x%d" k c :: acc) tally []
      |> List.sort compare |> String.concat ", "

let pp_table ppf reports =
  Format.fprintf ppf "%-12s %-5s %-4s %-4s %-8s %s@." "algorithm" "model" "n" "k" "verdict"
    "findings";
  Format.fprintf ppf "%s@." (String.make 78 '-');
  List.iter
    (fun (r : Lint.report) ->
      let s = r.Lint.r_subject in
      Format.fprintf ppf "%-12s %-5s %-4d %-4d %-8s %s@." s.Lint.sub_name
        (model_name s.Lint.sub_model) s.Lint.sub_n s.Lint.sub_k
        (if Lint.clean r then "clean" else "DIRTY")
        (summarize_findings r.Lint.r_findings))
    reports

let pp_findings ppf fs =
  List.iter
    (fun (f : Finding.t) ->
      Format.fprintf ppf "  %a@." Finding.pp f;
      List.iter (fun w -> Format.fprintf ppf "      %s@." w) f.Finding.witness)
    fs

(* ------------------------------------------------------------------ *)
(* srclint: the source-level sibling document and table.               *)

let srclint_schema = "kexclusion-srclint/v1"

let srclint_file_json (fr : Srclint.file_report) =
  Json.Obj
    [ ("path", Json.String fr.Srclint.fr_path);
      ("clean", Json.Bool (Srclint.file_clean fr));
      ("locks", Json.Int fr.Srclint.fr_locks);
      ("waits", Json.Int fr.Srclint.fr_waits);
      ("atomics", Json.Int fr.Srclint.fr_atomics);
      ("findings", Json.List (List.map finding_json fr.Srclint.fr_findings)) ]

let srclint_to_json ?(mutants = []) frs =
  Json.Obj
    [ ("schema", Json.String srclint_schema);
      ("git_rev", Json.String (Kex_service.Provenance.git_rev ()));
      ("host", Json.String (Kex_service.Provenance.hostname ()));
      ("clean", Json.Bool (Srclint.clean frs));
      ("files", Json.List (List.map srclint_file_json frs));
      ( "mutants",
        Json.List
          (List.map
             (fun (m, fr, killed, exact) ->
               match srclint_file_json fr with
               | Json.Obj fields ->
                   Json.Obj
                     (("mutant", Json.String m.Srclint_mutants.sm_name)
                     :: ("expected", Json.String (Finding.id m.Srclint_mutants.sm_expected))
                     :: ("killed", Json.Bool killed)
                     :: ("exact", Json.Bool exact)
                     :: fields)
               | j -> j)
             mutants) ) ]

let pp_srclint_table ppf frs =
  Format.fprintf ppf "%-34s %-6s %-6s %-8s %-8s %s@." "file" "locks" "waits" "atomics"
    "verdict" "findings";
  Format.fprintf ppf "%s@." (String.make 92 '-');
  List.iter
    (fun (fr : Srclint.file_report) ->
      Format.fprintf ppf "%-34s %-6d %-6d %-8d %-8s %s@." fr.Srclint.fr_path
        fr.Srclint.fr_locks fr.Srclint.fr_waits fr.Srclint.fr_atomics
        (if Srclint.file_clean fr then "clean" else "DIRTY")
        (summarize_findings fr.Srclint.fr_findings))
    frs
