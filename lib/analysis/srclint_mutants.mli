(** Seeded source-level mutants for srclint: each carries one planted
    concurrency bug and the check expected to kill it.  The corpus gates the
    analyzer the same way the Op-program {!Mutants} corpus gates kexlint —
    a check that stops firing on its bug class fails [--mutants] and the
    test suite's kill matrix. *)

type t = {
  sm_name : string;
  sm_desc : string;
  sm_path : string;  (** pseudo-path used for manifest lookup and sites *)
  sm_source : string;
  sm_manifest : Srclint.module_rules list;
  sm_expected : Finding.check;
}

val all : t list
val find : string -> t option

val report : t -> Srclint.file_report
(** Lint the mutant's source under its own manifest. *)

val exact : t -> Srclint.file_report -> bool
(** {e Only} the expected check fired — the kill is attributable. *)
