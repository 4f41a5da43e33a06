(** Construction of any of the paper's algorithms by name and machine model;
    used by the CLI, the benchmarks and the tests. *)

open Import

type algo =
  | Queue  (** Figure 1 — idealized, unrealistic atomic blocks *)
  | Bakery  (** read/write baseline (Table 1 rows [1]/[8] class) *)
  | Inductive  (** Theorem 1 / 5 *)
  | Tree  (** Theorem 2 / 6 *)
  | Fast_path  (** Theorem 3 / 7 *)
  | Graceful  (** Theorem 4 / 8 *)

val all : algo list
val algo_name : algo -> string
val algo_of_string : string -> algo option

val block_for : Cost_model.model -> Protocol.block
(** Figure 2 for cache-coherent machines, Figure 6 for DSM. *)

type lint_meta = {
  intended_spin : string list;
      (** {!Memory.label} prefixes of cells the algorithm busy-waits on {e by
          design} even though the spin is not local — findings at these sites
          are reported as waived, not as violations *)
}

val lint_meta : algo -> lint_meta
(** Declared spin discipline metadata consumed by the [Kex_analysis] lint
    passes and sanitizer. *)

val build : Memory.t -> model:Cost_model.model -> algo -> n:int -> k:int -> Protocol.t
(** [Queue] and [Bakery] ignore [model].  Raises [Invalid_argument] unless
    [n] and [k] are at least 1. *)

val build_assignment :
  Memory.t -> model:Cost_model.model -> algo -> n:int -> k:int -> Protocol.named
(** The algorithm wrapped into an (N,k)-assignment via Figure 7 renaming;
    raises as {!build} does. *)

val bound :
  model:Cost_model.model -> algo -> n:int -> k:int -> c:int -> int option
(** The paper's remote-reference bound per acquisition at contention [c],
    when the paper states one ([None] for Queue/Bakery, whose stated
    complexity with contention is unbounded). *)
