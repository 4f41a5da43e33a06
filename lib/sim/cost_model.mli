(** Remote-reference accounting, following Section 2 of the paper.

    The paper measures time complexity as the number of {e remote} references
    of shared memory per critical-section acquisition, under two machine
    models:

    - {b Cache-coherent (CC)}: every cell can be cached.  A read hits the
      local cache if the process holds a valid copy, otherwise it is remote
      and installs a copy.  Every write (and read-modify-write) is remote and
      invalidates all other copies.  Consequently a spin loop
      [while Q = p do od] generates at most two remote references per release
      of the waiter — exactly the paper's assumption.

    - {b Distributed shared memory (DSM)}: each cell resides in one
      processor's memory partition.  Accesses by the owner are local; all
      others are remote.  Unowned cells are remote to everyone.

    Representation note: CC validity is one presence bit per (process,
    cell), packed into ceil(n_procs / 62) ints per cell.  A read tests and
    sets its bit; a write's invalidation of all other copies clears its
    cell's ints, one int up to 62 processes instead of an O(n_procs) walk.
    The accounting is pinned against a byte-per-copy reference store by
    the differential tests in [test/test_cost_model_diff.ml]. *)

type kind = Local | Remote

type model = Cache_coherent | Distributed
(** Which machine the complexity is measured on. *)

type t

val create : model -> n_procs:int -> t
val model : t -> model

val charge : t -> Memory.t -> pid:int -> Op.step -> kind
(** Account for one single-cell atomic step by process [pid] and report
    whether it was a local or a remote reference.  [Delay] and non-memory
    steps are local.  [Atomic_block] falls back to one flat remote reference
    here because its footprint is unknown until it executes — the runner
    instead records the footprint and charges blocks per cell through
    {!charge_block}. *)

type block_charge = { block_remote : int; block_local : int }
(** Per-cell accounting of one [Atomic_block] execution. *)

val charge_block : t -> Memory.t -> pid:int -> Op.Footprint.t -> block_charge
(** Charge an [Atomic_block] by its observed footprint, cell by cell:

    - {b CC}: each distinct cell read (and not also written) hits or misses
      [pid]'s cached copy like a standalone read; each distinct cell written
      is one remote reference that invalidates every other process's copy
      (a cell both read and written is one RMW — charged once, as a write).
    - {b DSM}: each distinct cell accessed is local iff [pid] owns it.

    The block's remote total is therefore exactly what the equivalent
    sequence of hardware accesses would cost, not a flat [1]. *)

val pp_model : Format.formatter -> model -> unit
