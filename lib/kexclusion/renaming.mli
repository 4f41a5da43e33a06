(** Figure 7's long-lived renaming: the first renaming algorithm that lets
    processes repeatedly obtain and release names (Section 4).

    Provided at most k processes are concurrently between [acquire] and
    [release] (which the enclosing k-exclusion guarantees), a process
    test-and-sets the bits X[0], X[1], ... in order until one succeeds; bit j
    stands for name j.  The paper shows that if a process is about to
    test-and-set X[i] then some X[j] with i <= j < k is clear, so the scan
    terminates within the first k-1 bits or falls through to name k-1, whose
    bit is unnecessary because at most one process can reach it.  The name
    space is exactly k and at most k remote references are added. *)

open Import

type t

val create : Memory.t -> k:int -> t

val acquire : t -> int Op.t
(** Obtain a free name in [0..k-1].  Must be called only while holding the
    enclosing k-exclusion. *)

val release : t -> name:int -> unit Op.t
(** Return the name; statement 3 of Figure 7. *)
