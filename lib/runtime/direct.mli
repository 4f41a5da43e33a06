(** The direct instance of [Kexclusion.Figures]: the paper's Figures 2, 4,
    6 and 7 and their compositions, run on [int Atomic.t] cells by OCaml 5
    domains.  The program text is the one the simulator measures
    ([Kexclusion.Simulated]); each shared access here is the step the
    simulator counts there.

    On a cache-coherent machine (any machine OCaml 5 runs on) a Figure 2
    waiter's spin location Q migrates into its cache, so the busy-wait
    costs two coherence misses per release, the property the paper's
    complexity analysis is built on.  Figure 6 is correct on any machine;
    on a NUMA deployment its per-process P/R banks would be placed in the
    owner's partition.  Cell owners and labels are ignored here. *)

module Mem :
  Kexclusion.Figures.MEMORY
    with type 'a m = 'a
     and type ctx = int
     and type block = int Atomic.t array
     and type cell = int Atomic.t
     and type 'a per_pid = 'a array
(** Computations run as they are built; [ctx] is the process count, which
    sizes every private variable (pids range over [0..ctx-1]); [await]
    spins on [Domain.cpu_relax] and allocates nothing. *)

include Kexclusion.Figures.S with type 'a m = 'a and type ctx = int and type cell = int Atomic.t
