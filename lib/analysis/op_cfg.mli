(** Bounded symbolic control-flow graphs of {!Kex_sim.Op} programs.

    An [Op.t] program is a tree of closures: continuations capture private
    state and perform side effects when forced, so the program cannot be
    inspected structurally.  This module recovers an explicit CFG anyway by
    {e driving} each [Step] continuation with a small set of feasible result
    samples (both outcomes for CAS / test-and-set, the current cell value
    plus abstract probes for reads and fetch-and-adds) and hash-consing the
    reached continuation states by a depth-bounded structural fingerprint.
    Spin loops unroll identically at every iteration, so their states merge
    and become cycles of the graph.

    Because continuations mutate private per-process state when forced, each
    state is expanded on a {e fresh replay}: the instance under analysis is
    rebuilt from scratch ([make ()]) and walked along the state's recorded
    choice prefix, so side effects always happen in true path order.  [make]
    must therefore be deterministic (same allocations, same addresses). *)

module Op = Kex_sim.Op
module Memory = Kex_sim.Memory

type acc = {
  a_addr : Op.addr;
  a_site : string;  (** ["label[off]@addr"] rendering of the cell *)
  a_owner : int option;  (** DSM owner at discovery time *)
  a_region : (string * int) option;  (** labelled region, if any *)
  a_read : bool;
  a_write : bool;
  a_rmw : bool;  (** read-modify-write primitive (faa/cas/tas/swap) *)
  a_value : Op.value option;  (** stored value, for plain writes *)
}

type shape =
  | Halt  (** program returned *)
  | Event of Op.event
  | Access of {
      pp : string;  (** human-readable statement rendering *)
      accs : acc list;  (** every cell touched (blocks touch several) *)
      bfaa : (int * int * int) option;
          (** [(delta, lo, hi)] when the step is a [Bounded_faa] *)
    }

type node = {
  id : int;
  shape : shape;
  mutable succs : (Op.value option * int) list;
      (** outgoing edges, labelled with the driven result value *)
  depth : int;  (** length of the representative choice prefix *)
}

type t = {
  nodes : node array;  (** node [i] has [id = i]; node 0 is the entry *)
  complete : bool;  (** false iff a node/depth cap was hit *)
  max_depth_hit : bool;
}

val n_nodes : t -> int
val node : t -> int -> node

val build : make:(unit -> Memory.t * unit Op.t) -> unit -> t
(** Explore from the program's initial state.  [make] builds a fresh,
    deterministic instance: a memory and the program to analyze over it.
    The exploration keeps at most 4000 states, follows paths up to 400
    steps, and fingerprints states 5 levels deep. *)

val loops : t -> int list list
(** The SCCs that are actual loops: more than one node, or a self edge. *)

val reaches_halt_avoiding :
  t -> start:int -> blocked:(node -> bool) -> int list option
(** BFS witness path from [start] to a [Halt] node that never enters a node
    satisfying [blocked]; [None] if every terminating path is blocked. *)

val describe : t -> int -> string

val exec_block :
  Memory.t ->
  (read:(Op.addr -> Op.value) -> write:(Op.addr -> Op.value -> unit) -> Op.value) ->
  Op.addr list * Op.addr list * Op.value
(** Run an atomic block body against a write overlay (backing memory is not
    mutated); returns [(reads, writes, result)] in first-access order. *)
