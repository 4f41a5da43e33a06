(** A wait-free universal construction for k processes (Herlihy-style
    announce-and-help over compare-and-swap).

    The paper's methodology assumes "a wait-free, k-process implementation"
    of the target object as the inner layer; this module provides one for
    any sequential object, so the methodology is executable end-to-end.

    Every operation completes in a bounded number of its caller's own steps
    regardless of the speed — or death — of the other k-1 threads: helpers
    apply announced operations, so even an operation announced by a thread
    that crashes immediately afterwards is eventually applied by someone
    else.  Threads are identified by a tid in [0..k-1]; in the composed
    system the tid is the {e name} handed out by k-assignment. *)

type ('s, 'op, 'r) t

val create : k:int -> init:'s -> apply:('s -> 'op -> 's * 'r) -> ('s, 'op, 'r) t
(** [apply] must be a pure function of the state (it may be re-executed by
    helpers; only the linearized application's result is returned). *)

val perform : ('s, 'op, 'r) t -> tid:int -> 'op -> 'r
(** Linearizes and applies [op], returning its result.  At most one
    operation per tid may be in flight (the k-assignment wrapper guarantees
    this). *)

val announce_only : ('s, 'op, 'r) t -> tid:int -> 'op -> unit
(** Announce an operation and return without helping — {e test hook}
    simulating a thread that crashes right after announcing.  The operation
    will still be applied by the next [perform] of any other tid. *)

val state : ('s, 'op, 'r) t -> 's
(** The latest committed state (a linearized read). *)

val applied_count : ('s, 'op, 'r) t -> int
(** Number of operations linearized so far. *)

val committed : ('s, 'op, 'r) t -> int * 's
(** [(applied_count, state)] from one atomic read of the head cell — a
    consistent pair, which is what a versioned read (the service's read
    plane, migration's bulk and delta) needs. *)

val apply_calls : ('s, 'op, 'r) t -> int
(** Number of times [apply] has been invoked, including helper re-executions
    that lost the commit race.  [apply_calls t - applied_count t] is the
    re-execution overhead of helping; tests use it to observe that crashed
    operations are re-run without being double-applied. *)

val k : ('s, 'op, 'r) t -> int
