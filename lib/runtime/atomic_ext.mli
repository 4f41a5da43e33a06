(** The extra atomic primitives the paper assumes, built on [Atomic].

    [Atomic.fetch_and_add] is the paper's fetch-and-increment and
    [Atomic.compare_and_set] its compare-and-swap; the two additions here are
    test-and-set and the non-underflowing fetch-and-increment of Figure 4's
    footnote 2.  The bounded counter uses a CAS loop: lock-free rather than
    wait-free, which preserves the resilience story (a {e crashed} process
    cannot make the loop retry; only active contenders can). *)

val test_and_set : int Atomic.t -> bool
(** Stores 1 and returns [true] iff the cell held 0 (the caller won). *)

val bounded_fetch_and_add : int Atomic.t -> int -> lo:int -> hi:int -> int
(** [bounded_fetch_and_add x d ~lo ~hi] adds [d] unless the result would
    leave [lo..hi], and returns the old value read. *)
