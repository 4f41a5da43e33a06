(** The (N,k)-exclusion and (N,k)-assignment protocol interfaces of the
    simulator: {!Figures.S}'s records at [Op].

    A protocol is a pair of entry/exit programs per process.  Protocols
    compose: the paper's Figures 2, 5 and 6 take an inner (N,k+1)-exclusion
    ["Acquire"/"Release"] protocol, and the tree / fast-path constructions
    stack whole protocols. *)

open Import

type t = Simulated.protocol = {
  name : string;
  entry : pid:int -> unit Op.t;  (** the paper's [Acquire] *)
  exit : pid:int -> unit Op.t;  (** the paper's [Release] *)
  try_entry : pid:int -> bool Op.t;
      (** [Acquire] with no patience ({!Figures.S.protocol}).  Protocols
          with no no-wait entry (Figure 1's queue, the bakery, Peterson,
          MCS) refuse without taking a step.  The runner and the lint
          passes do not call it. *)
}

type named = Simulated.named = {
  assignment_name : string;
  acquire : pid:int -> int Op.t;
      (** entry section returning a name in [0..k-1], held through the
          critical section *)
  try_acquire : pid:int -> int option Op.t;  (** [try_entry], then a name *)
  release : pid:int -> name:int -> unit Op.t;
}

type block = Simulated.block
(** A building-block constructor: given an inner (n,k+1)-exclusion, produce
    an (n,k)-exclusion.  {!Simulated.fig2} (Figure 2) and
    {!Simulated.fig6} (Figure 6) have this shape. *)

val workload : t -> Runner.workload
(** Lift a plain exclusion protocol to a runner workload (name 0, no
    uniqueness checking). *)

val named_workload : named -> Runner.workload
(** Lift a k-assignment protocol; the monitor will check name uniqueness. *)
