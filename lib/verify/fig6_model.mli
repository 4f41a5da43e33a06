(** Explicit-state model of Figure 6 (the bounded-space DSM building block)
    in its building-block configuration (N = k+1, inner Acquire/Release =
    skip), with crash transitions.

    This is the subtlest algorithm in the paper — the R-counter feedback
    protocol that makes spin-location reuse safe — so exhaustive checking at
    small N is the strongest evidence the transcription is right.

    Verified: k-Exclusion, the X-counter invariant (I5 analogue), R-counter
    range bounds, spin-location non-interference (a process never waits on a
    location some earlier process can still set), and possible progress with
    at most k-1 crashes.

    A process whose fetch-and-add returned 0 may also abort, as the
    runtime's no-wait entry does: instead of statement 3 it runs the exit
    statements 16-21 and returns to its noncritical section. *)

type variant =
  | Faithful
  | No_feedback
      (** mutant: helpers skip the R increment / re-read of Q (statements 8-9
          and 18-19), re-creating the unsafe-reuse race the counters exist to
          prevent *)
  | No_recheck
      (** mutant: statement 9/19's re-read of Q is skipped (helpers write P
          unconditionally after announcing) *)
  | Skip_init
      (** mutant: statement 6 is skipped — spin locations are not reset to
          false before reuse, so a stale [true] admits a waiter spuriously *)
  | Fewer_slots
      (** ablation: only k+1 spin locations per process instead of the k+2
          the paper proves necessary ("to ensure that the most-recently-used
          spin location is not chosen again") *)
  | Abort_no_release
      (** mutant: an abort restores X but skips statements 17-21, so nobody
          sets the spin location of a process that queued behind it *)
  | Abort_keeps_x  (** mutant: an abort skips statement 16, leaving X one short *)

type state

val model :
  ?variant:variant -> n:int -> max_crashes:int -> unit ->
  (module System.MODEL with type state = state)

val in_cs : state -> int -> bool
val live_entering : state -> int -> bool
val crash_count : state -> int
