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
    system the tid is the {e name} handed out by k-assignment.

    The unit of announcement and commit is a batch: a thread announces a
    list of operations, and whoever helps it applies the whole list with
    one call of the object's batch apply and installs the result with one
    CAS. *)

type ('s, 'op, 'r) t

val create : k:int -> init:'s -> apply:('s -> 'op list -> 's * 'r list) -> ('s, 'op, 'r) t
(** [apply s ops] applies a whole batch: the state after [ops] in list
    order, and their results aligned with the list.  It must be a pure
    function of the state (it may be re-executed by helpers; only the
    linearized application's results are returned). *)

val per_op : ('s -> 'op -> 's * 'r) -> 's -> 'op list -> 's * 'r list
(** A batch apply that runs a one-operation function over the list in
    order — how an object without a batch algorithm of its own is made:
    [create ~k ~init ~apply:(per_op apply)]. *)

val perform_batch : ('s, 'op, 'r) t -> tid:int -> 'op list -> 'r list
(** Announce [ops] as one batch and return its results, aligned with the
    list.  The batch linearizes at its commit CAS with its operations in
    list order: a reader ({!state}, {!committed}) sees all of it or none
    of it.  At most one batch per tid may be in flight (the k-assignment
    wrapper guarantees this).  An empty list returns [[]] without
    announcing. *)

val perform : ('s, 'op, 'r) t -> tid:int -> 'op -> 'r
(** A batch of one: linearizes and applies [op], returning its result. *)

val announce_only : ('s, 'op, 'r) t -> tid:int -> 'op list -> unit
(** Announce a batch and return without helping — {e test hook}
    simulating a thread that crashes right after announcing.  The batch
    will still be applied, once and in order, by other tids' performs
    (within k commits of theirs). *)

val state : ('s, 'op, 'r) t -> 's
(** The latest committed state (a linearized read). *)

val applied_count : ('s, 'op, 'r) t -> int
(** Number of operations (not batches) linearized so far. *)

val committed : ('s, 'op, 'r) t -> int * 's
(** [(applied_count, state)] from one atomic read of the head cell — a
    consistent pair, which is what a versioned read (the service's read
    plane, migration's bulk and delta) needs. *)

val apply_calls : ('s, 'op, 'r) t -> int
(** Number of operations the batch apply has been invoked on (a batch
    counts its length), including helper re-executions of batches that
    lost the commit race.
    [apply_calls t - applied_count t] is the re-execution overhead of
    helping; tests use it to observe that crashed operations are re-run
    without being double-applied. *)

val k : ('s, 'op, 'r) t -> int
