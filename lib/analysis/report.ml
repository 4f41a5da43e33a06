module Json = Kex_service.Json
module Cost_model = Kex_sim.Cost_model

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

type 'r analyzer = {
  schema : string;
  corpus : 'r Finding.mutant list;
  findings : 'r -> Finding.t list;
  title : 'r -> string;
  columns : (string * int) list;
  cells : 'r -> string list;
  fields : 'r -> (string * Json.t) list;
  body : 'r list -> (string * Json.t) list;
}

let findings_json fs = ("findings", Json.List (List.map finding_json fs))

let lint =
  let fields (r : Lint.report) =
    let s = r.Lint.r_subject in
    [ ("subject", Json.String s.Lint.sub_name);
      ("model", Json.String (model_name s.Lint.sub_model));
      ("n", Json.Int s.Lint.sub_n);
      ("k", Json.Int s.Lint.sub_k);
      ("clean", Json.Bool (Lint.clean r));
      findings_json r.Lint.r_findings ]
  in
  { schema = "kexclusion-lint/v1";
    corpus = Mutants.all;
    findings = (fun r -> r.Lint.r_findings);
    title =
      (fun { Lint.r_subject = s; _ } ->
        Printf.sprintf "%s under %s" s.Lint.sub_name (model_name s.Lint.sub_model));
    columns = [ ("algorithm", 12); ("model", 5); ("n", 4); ("k", 4) ];
    cells =
      (fun { Lint.r_subject = s; _ } ->
        [ s.Lint.sub_name; model_name s.Lint.sub_model; string_of_int s.Lint.sub_n;
          string_of_int s.Lint.sub_k ]);
    fields;
    body = (fun rs -> [ ("reports", Json.List (List.map (fun r -> Json.Obj (fields r)) rs)) ]) }

let srclint =
  let fields (fr : Srclint.file_report) =
    [ ("path", Json.String fr.Srclint.fr_path);
      ("clean", Json.Bool (Srclint.file_clean fr));
      ("locks", Json.Int fr.Srclint.fr_locks);
      ("waits", Json.Int fr.Srclint.fr_waits);
      ("atomics", Json.Int fr.Srclint.fr_atomics);
      findings_json fr.Srclint.fr_findings ]
  in
  { schema = "kexclusion-srclint/v1";
    corpus = Srclint_mutants.all;
    findings = (fun fr -> fr.Srclint.fr_findings);
    title = (fun fr -> fr.Srclint.fr_path);
    columns = [ ("file", 34); ("locks", 6); ("waits", 6); ("atomics", 8) ];
    cells =
      (fun fr ->
        fr.Srclint.fr_path
        :: List.map string_of_int [ fr.Srclint.fr_locks; fr.Srclint.fr_waits; fr.Srclint.fr_atomics ]);
    fields;
    body =
      (fun frs ->
        [ ("clean", Json.Bool (Srclint.clean frs));
          ("files", Json.List (List.map (fun fr -> Json.Obj (fields fr)) frs)) ]) }

let clean a r = List.for_all (fun f -> f.Finding.waived) (a.findings r)

let judge a =
  List.map
    (fun m ->
      let r = m.Finding.m_run () in
      (m, r, Finding.verdict m.Finding.m_expected (a.findings r)))
    a.corpus

let to_json a reports judged =
  let mutant ((m : _ Finding.mutant), r, v) =
    Json.Obj
      (("mutant", Json.String m.Finding.m_name)
      :: ("expected", Json.String (Finding.id m.Finding.m_expected))
      :: ("killed", Json.Bool (v <> Finding.Survived))
      :: ("exact", Json.Bool (v = Finding.Killed))
      :: a.fields r)
  in
  Json.Obj
    ([ ("schema", Json.String a.schema);
       ("git_rev", Json.String (Kex_service.Provenance.git_rev ()));
       ("host", Json.String (Kex_service.Provenance.hostname ())) ]
    @ a.body reports
    @ [ ("mutants", Json.List (List.map mutant judged)) ])

(* ------------------------------------------------------------------ *)
(* Human-readable tables.                                              *)

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

let pp_table a ppf reports =
  let row cells verdict findings =
    List.iter2 (fun (_, width) c -> Format.fprintf ppf "%-*s " width c) a.columns cells;
    Format.fprintf ppf "%-8s %s@." verdict findings
  in
  row (List.map fst a.columns) "verdict" "findings";
  Format.fprintf ppf "%s@."
    (String.make (List.fold_left (fun acc (_, width) -> acc + width + 1) 49 a.columns) '-');
  List.iter
    (fun r ->
      row (a.cells r) (if clean a r then "clean" else "DIRTY") (summarize_findings (a.findings r)))
    reports

let pp_verdicts ppf judged =
  Format.fprintf ppf "%-26s %-26s %s@." "mutant" "expected" "verdict";
  Format.fprintf ppf "%s@." (String.make 68 '-');
  List.iter
    (fun ((m : _ Finding.mutant), _, v) ->
      Format.fprintf ppf "%-26s %-26s %s@." m.Finding.m_name (Finding.id m.Finding.m_expected)
        (match v with
        | Finding.Killed -> "killed"
        | Finding.Inexact -> "KILLED-INEXACT"
        | Finding.Survived -> "SURVIVED"))
    judged

let pp_findings ppf fs =
  List.iter
    (fun (f : Finding.t) ->
      Format.fprintf ppf "  %a@." Finding.pp f;
      List.iter (fun w -> Format.fprintf ppf "      %s@." w) f.Finding.witness)
    fs
