(** Hand-translated explicit-state model of Figure 2 in its building-block
    configuration (N = k+1, inner Acquire/Release = skip), with crash
    transitions.

    Verified properties (see {!Explore}):
    - the paper's invariants (I2), (I3) and k-Exclusion (I4);
    - the unless property (U1): [p@5 /\ Q <> p unless p@6];
    - possible progress: with at most [max_crashes <= k-1] crashes, from
      every reachable state each live entering process can still reach its
      critical section.

    A process whose fetch-and-add returned 0 may also abort, as the
    runtime's no-wait entry does: instead of statement 3 it runs the exit
    statements 6-7 and returns to its noncritical section.  The same
    properties hold with that move. *)

type variant =
  | Faithful
  | No_release_write  (** mutant: exit section omits statement 7 (Q := p) *)
  | Broken_gate
      (** mutant: statement 2 admits the process even when no slot is free *)
  | Abort_no_release
      (** mutant: an abort restores X but skips statement 7, stranding a
          process that queued behind it *)
  | Abort_keeps_x  (** mutant: an abort skips statement 6, leaving X one short *)

type state

val model :
  ?variant:variant -> n:int -> max_crashes:int -> unit ->
  (module System.MODEL with type state = state)
(** [n] processes implementing (n, n-1)-exclusion — the Theorem 1 basis. *)

val in_cs : state -> int -> bool
val live_entering : state -> int -> bool
(** The process is in its entry section and has not crashed. *)

val crash_count : state -> int
