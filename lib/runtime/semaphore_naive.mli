(** The global-spin baseline: a counting semaphore on which every waiter
    spins on the same cache line with compare-and-swap retries.

    This is the "what everyone writes first" k-exclusion; under contention
    every release invalidates every waiter's cache copy and triggers a CAS
    storm — the behaviour the paper's local-spin algorithms avoid.  Used as
    the comparison baseline in benchmarks. *)

val create : n:int -> k:int -> Direct.protocol
