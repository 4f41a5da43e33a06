(** The paper's methodology, end to end (Section 1): a (k-1)-resilient,
    N-process shared object built by encasing a wait-free k-process
    implementation inside an (N,k)-assignment wrapper.

    The wrapper admits at most k processes at a time and hands each a unique
    name in [0..k-1], which serves as its thread id inside the wait-free
    inner object.  Consequences, exactly as the paper argues:

    - up to k-1 processes may fail undetectably {e anywhere} — even inside
      an operation — and every other process still completes every
      operation: a dead name-holder costs one name/slot, and its half-done
      inner operation is finished by helpers;
    - when contention stays at or below k, nobody ever waits at the wrapper,
      so the object is effectively wait-free at a cost independent of N;
    - resiliency (k) is chosen from expected contention, not from N — the
      knob wait-freedom does not offer. *)

type ('s, 'op, 'r) t

val create :
  ?algo:Kex_runtime.Kex_lock.algo ->
  n:int ->
  k:int ->
  init:'s ->
  apply:('s -> 'op list -> 's * 'r list) ->
  unit ->
  ('s, 'op, 'r) t
(** [apply] is the inner object's batch apply ({!Universal.create}; lift a
    one-operation function with {!Universal.per_op}).  It must be pure
    (helpers may re-execute it). *)

val perform : ('s, 'op, 'r) t -> pid:int -> 'op -> 'r
(** Linearize [op] on behalf of process [pid] (0 <= pid < n). *)

val perform_batch : ('s, 'op, 'r) t -> pid:int -> 'op list -> 'r list
(** Linearize the operations as one batch, acquiring the
    (N,k)-assignment slot {e once} and committing {e once} inside the
    wait-free object ({!Universal.perform_batch}) — the amortization the
    service's workers and inline path rely on.  Results align with the
    input list.  The batch linearizes at its commit, its operations in
    list order: a {!read} sees all of it or none of it.  An empty list
    takes no slot. *)

val try_perform_batch : ('s, 'op, 'r) t -> pid:int -> 'op list -> 'r list option
(** {!perform_batch} with no patience at the wrapper
    ({!Kex_runtime.Kex_lock.Assignment.try_with_name}): [None] means
    admission refused without waiting, and no operation was applied.  A
    caller that must never wait on a slot held by a busy or crashed
    process uses this and falls back to handing the batch to a process
    that may wait. *)

val read : ('s, 'op, 'r) t -> 's
(** Wait-free linearizable read of the committed state — no pid, no name,
    no admission slot.  It is one atomic load of the universal object's
    head ({!Universal.state}), and a mutation returns only after its
    commit, so a read always reflects every acknowledged mutation; it
    stays live even when all k admission slots are wedged by crashed
    processes.  A batch ({!perform_batch}) commits as a whole, so a read
    never sees part of one.  This is the read plane GETs ride in the
    networked service. *)

val read_versioned : ('s, 'op, 'r) t -> int * 's
(** {!read} plus its linearization version (operations committed in that
    state), from the same load ({!Universal.committed}) — a consistent
    pair. *)

val operations : ('s, 'op, 'r) t -> int
(** Operations (not batches) linearized so far. *)

val apply_calls : ('s, 'op, 'r) t -> int
(** Operations [apply] ran on, including helper re-executions — the helping
    overhead next to {!operations}; surfaced by services as a live measure
    of how much crash-covering work the object is doing. *)

val n : ('s, 'op, 'r) t -> int
val k : ('s, 'op, 'r) t -> int

val inner : ('s, 'op, 'r) t -> ('s, 'op, 'r) Universal.t
(** The wait-free inner object — exposed for failure-injection tests. *)

val assignment : ('s, 'op, 'r) t -> Kex_runtime.Kex_lock.Assignment.t
(** The wrapper — exposed for failure-injection tests and examples. *)
