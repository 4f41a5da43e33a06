(** Seeded source-level mutants for srclint: each carries one planted
    concurrency bug and the check expected to kill it, and runs srclint on
    its source under its own manifest.  The corpus gates the analyzer the
    same way the Op-program {!Mutants} corpus gates kexlint — a check that
    stops firing on its bug class fails [kexd srclint] and the test suite's
    kill matrix. *)

val all : Srclint.file_report Finding.mutant list
