(** Figure 5 of the paper: the (N,k)-exclusion building block for
    distributed shared-memory machines, using an {e unbounded} number of
    local spin locations.

    Every acquisition that must wait allocates a brand-new spin cell local to
    the waiting process, publishes its address through [Q] with
    compare-and-swap, and spins on it locally.  The compare-and-swap detects
    the release race described in Section 3.2: if [Q] changed between the
    read at statement 5 and the CAS at statement 7, some other process
    already took over the wait, and this process must not block.

    {!Simulated.fig6} (Figure 6) bounds the space; this module exists
    because the paper presents it first and because its simplicity makes
    it the best test oracle for the bounded version. *)

open Import

val create : Memory.t -> n:int -> k:int -> inner:Protocol.t -> Protocol.t
