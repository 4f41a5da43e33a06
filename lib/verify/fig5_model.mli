(** Explicit-state model of Figure 5 (the unbounded-spin-location DSM block)
    at N = k+1 with the inner Acquire/Release = skip.

    Figure 5 allocates a fresh spin location per waiting acquisition, so its
    state space is only finite if runs are: each process performs at most
    [rounds] acquisitions and then retires, which bounds the location pool
    to [rounds] cells per process.  Within that bound the model is checked
    exhaustively — k-exclusion, the X invariant, and possible progress with
    at most k-1 crashes — which validates the transcription that
    Figure 6 ({!Shipped}) then strengthens with bounded reuse. *)

type variant =
  | Faithful
  | No_cas
      (** mutant: statement 7's compare-and-swap is replaced by a plain
          write of Q, losing the release-race detection the paper motivates
          it with *)

type state

val model :
  ?variant:variant -> n:int -> rounds:int -> max_crashes:int -> unit ->
  (module System.MODEL with type state = state)

val in_cs : state -> int -> bool
val live_entering : state -> int -> bool
val crash_count : state -> int
