(** Figure 4 of the paper: (N,k)-exclusion with a fast path.

    A bounded fetch-and-increment gate [X] (footnote 2's non-underflowing
    variant) hands out k fast slots.  A process that gets one goes directly
    to a final (2k,k)-exclusion block; the rest first traverse a slow-path
    (N-k,k)-exclusion, so at most 2k processes reach the final block.

    When contention is at most k the gate never runs dry and an acquisition
    costs 7k+2 remote references on cache-coherent machines (14k+2 on DSM):
    Theorems 3 and 7, with the slow path implemented as a {!Tree}. *)

open Import

val with_tree : Memory.t -> block:Protocol.block -> n:int -> k:int -> Protocol.t
(** The Theorem 3 / Theorem 7 configuration: slow path = arbitration tree. *)
