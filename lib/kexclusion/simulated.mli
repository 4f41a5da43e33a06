(** The simulator instance of {!Figures}: each shared access is one [Op]
    step over a simulated {!Memory}, and private variables live in
    {!Pid_state} tables, materialised per pid on first use.  The
    simulator, the benchmarks, lint and the tests build the figures, their
    compositions and the MCS lock from its parts. *)

open Import

module Mem :
  Figures.MEMORY
    with type 'a m = 'a Op.t
     and type ctx = Memory.t
     and type block = Op.addr
     and type cell = Op.addr
     and type 'a per_pid = 'a Pid_state.t

include Figures.S with type 'a m = 'a Op.t and type ctx = Memory.t and type cell = Op.addr
