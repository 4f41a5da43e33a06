(** Rendering both analyzers' results: the [kexclusion-lint/v1] and
    [kexclusion-srclint/v1] JSON documents, the subject tables and the
    mutant verdicts printed by [kexd lint] and [kexd srclint].

    An {!analyzer} describes one analyzer's reports to the shared writer,
    tables and gate; {!lint} and {!srclint} are the two. *)

val model_name : Kex_sim.Cost_model.model -> string

type 'r analyzer = {
  schema : string;
  corpus : 'r Finding.mutant list;  (** the seeded mutants the gate runs *)
  findings : 'r -> Finding.t list;
  title : 'r -> string;  (** a report's heading under [--verbose] *)
  columns : (string * int) list;
      (** the table's leading columns, header and width; the verdict and
          the tally of findings follow *)
  cells : 'r -> string list;  (** a report's leading cells *)
  fields : 'r -> (string * Kex_service.Json.t) list;  (** a report's JSON keys *)
  body : 'r list -> (string * Kex_service.Json.t) list;
      (** the document's keys between its provenance and its mutants *)
}

val lint : Lint.report analyzer
(** One report per algorithm and model, under ["reports"]. *)

val srclint : Srclint.file_report analyzer
(** The run's verdict under ["clean"], then one report per scanned file,
    with its lock/wait/atomic census, under ["files"]. *)

val clean : 'r analyzer -> 'r -> bool
(** No un-waived finding. *)

val judge : 'r analyzer -> ('r Finding.mutant * 'r * Finding.verdict) list
(** Run the corpus: each mutant with its report and {!Finding.verdict}. *)

val to_json :
  'r analyzer -> 'r list -> ('r Finding.mutant * 'r * Finding.verdict) list -> Kex_service.Json.t
(** Whole-run document: schema id, provenance, the analyzer's [body],
    and one entry per mutant: its name, expected check, [killed] and [exact]
    verdicts, then its report's keys. *)

val pp_table : 'r analyzer -> Format.formatter -> 'r list -> unit
val pp_verdicts : Format.formatter -> ('r Finding.mutant * 'r * Finding.verdict) list -> unit

val pp_findings : Format.formatter -> Finding.t list -> unit
(** One line per finding, then its witness lines. *)
