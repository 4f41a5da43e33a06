(** The MCS queue lock (reference [12] of the paper) on real atomics —
    mutual exclusion only, the k = 1 efficiency target of the paper's
    concluding section.  Not failure-resilient: a crashed waiter wedges its
    successors. *)

type t

val create : n:int -> t
(** [n] processes, pids 0..n-1. *)

val acquire : t -> pid:int -> unit
val release : t -> pid:int -> unit
val with_lock : t -> pid:int -> (unit -> 'a) -> 'a
