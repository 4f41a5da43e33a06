(** Explicit-state model of the Figure 4 composition: the bounded
    fetch-and-increment gate, an abstract correct (N-k,k)-exclusion slow
    path, and the final (2k,k)-exclusion implemented as the real stack of k
    Figure 2 layers (Theorem 1's induction).

    The building blocks are verified separately ({!Shipped}); what this
    model checks exhaustively is the {e composition} argument of Theorem 3:
    at most k processes pass the gate, at most k come through the slow path,
    so at most 2k ever enter the final block, whose admission is then at
    most k.  Crash and retirement transitions included; each layer's X is
    checked against the processes holding it.  It stays beside {!Shipped}'s
    check of the shipped composition because its abstract slow path reaches
    one crash at k = 2, where the shipped text passes 2,000,000 states.

    A process may also enter with no patience, as the runtime's no-wait
    entry does: the gate refuses it at 0 (back to the noncritical
    section), and a final-block layer whose fetch-and-add returns 0 runs
    that layer's exit statements, then the exits of the layers it passed
    and the gate release. *)

type variant =
  | Faithful
  | Leaky_gate
      (** mutant: the gate uses a plain (underflowing) fetch-and-increment
          instead of footnote 2's bounded one, so the fast-path slot count
          is corrupted under contention *)
  | No_slow_path
      (** mutant: losers of the gate skip the slow path and walk straight
          into the final (2k,k) block, breaking its 2k admission bound *)
  | Abort_no_release
      (** mutant: an abort restores its layer's X but skips that layer's
          Q := p, stranding a process that queued behind it *)
  | Abort_keeps_x
      (** mutant: an abort skips its layer's exit fetch-and-add, leaving X
          one short *)

type state

val model :
  ?variant:variant -> n:int -> k:int -> max_crashes:int -> unit ->
  (module System.MODEL with type state = state)

val in_cs : state -> int -> bool
val live_entering : state -> int -> bool
val crash_count : state -> int
