(** Seeded-bug corpus for the analyzer.

    Each mutant is a deliberately broken variant of one of the paper's
    constructions, paired with the specific check expected to kill it.  The
    corpus pins the analyzer's sensitivity: the real algorithms must come out
    clean, every mutant must not. *)

val all : Lint.report Finding.mutant list

val fig2_block : Lint.subject
(** The unmutated Figure 2 block over a skip inner, at the size its three
    mutants ([cc-no-release-write], [cc-off-by-one],
    [cc-write-in-wait-loop]) run: it must lint clean there. *)
