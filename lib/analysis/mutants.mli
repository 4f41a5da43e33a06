(** Seeded-bug corpus for the analyzer.

    Each mutant is a deliberately broken variant of one of the paper's
    constructions, paired with the specific check expected to kill it.  The
    corpus pins the analyzer's sensitivity: the real algorithms must come out
    clean, every mutant must not. *)

type t = {
  m_name : string;
  m_desc : string;
  m_subject : Lint.subject;
  m_expected : Finding.check;  (** the check that must fire, un-waived *)
}

val all : t list
val find : string -> t option
