(** Rendering lint results: the [kexclusion-lint/v1] JSON document and the
    human-readable table printed by [kexd lint]. *)

val schema : string
val model_name : Kex_sim.Cost_model.model -> string

val to_json :
  ?mutants:(Mutants.t * Lint.report * bool) list ->
  Lint.report list ->
  Kex_service.Json.t
(** Whole-run document: schema id, provenance, one report per subject, and
    (when mutants were run) one entry per mutant with its expected check and
    kill verdict. *)

val pp_table : Format.formatter -> Lint.report list -> unit
val pp_findings : Format.formatter -> Finding.t list -> unit
(** One line per finding, then its witness lines; shared by [kexd lint] and
    [kexd srclint]. *)

(** {1 srclint} — the [kexclusion-srclint/v1] document and the table printed
    by [kexd srclint]. *)

val srclint_to_json :
  ?mutants:(Srclint_mutants.t * Srclint.file_report * bool * bool) list ->
  Srclint.file_report list ->
  Kex_service.Json.t
(** Whole-run document: schema id, provenance, one entry per scanned file
    (with its lock/wait/atomic census), and — when the mutant corpus ran —
    one entry per mutant with its [killed] and [exact] verdicts. *)

val pp_srclint_table : Format.formatter -> Srclint.file_report list -> unit
