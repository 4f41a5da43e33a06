(** The packaged user-facing API: k-exclusion locks and k-assignment (named
    slots) for OCaml 5 domains.

    A [Kex_lock.t] admits up to [k] holders at once and tolerates up to
    [k-1] holders that never release (crashed, hung, or deadlocked
    downstream): the remaining slots keep circulating.  This is the paper's
    resiliency-vs-contention trade — pick [k] from expected contention, not
    from the process count.

    {[
      let lock = Kex_lock.create ~n:ndomains ~k:4 () in
      Kex_lock.with_lock lock ~pid (fun () -> (* at most 4 domains here *) ...)
    ]} *)

type algo =
  | Naive  (** global-spin semaphore baseline *)
  | Inductive  (** Theorem 1: 7(N-k) worst case *)
  | Tree  (** Theorem 2: 7k·log2(N/k) *)
  | Fast_path  (** Theorem 3: 7k+2 while contention <= k (default) *)
  | Graceful  (** Theorem 4: degrades proportionally to contention *)
  | Dsm_fast_path
      (** Theorem 7: the fast path built from Figure 6 blocks — each waiter
          spins on its own cell (per-process spin locations), the right
          choice for NUMA placement *)

val all : algo list

val algo_name : algo -> string
(** The name [kexd serve --algo] takes, e.g. [fastpath] or [dsm-fastpath]. *)

val algo_of_string : string -> algo option

type t

val create : ?algo:algo -> n:int -> k:int -> unit -> t
(** [n] is the number of processes (pids [0..n-1]); [k] the admission bound.
    Default algorithm: [Fast_path]. *)

val acquire : t -> pid:int -> unit

val try_acquire : t -> pid:int -> bool
(** Acquire with no patience: [true] admits [pid] as {!acquire} would (it
    must {!release}); [false] returns without waiting and leaves the lock
    as if [pid] never arrived.  False whenever [k] holders are inside, and
    possibly also while slots are merely contended (a gate at 0, a lost
    race): the caller's fallback must not assume the lock is full. *)

val release : t -> pid:int -> unit
val with_lock : t -> pid:int -> (unit -> 'a) -> 'a
(** Releases on exception.  Note: per the k-exclusion model, a [pid] must not
    acquire re-entrantly. *)

val name : t -> string
val k : t -> int
val n : t -> int

(** k-assignment: k-exclusion plus a unique name in [0..k-1] per holder —
    e.g. an index into a pool of k resources. *)
module Assignment : sig
  type t

  val create : ?algo:algo -> n:int -> k:int -> unit -> t
  val acquire : t -> pid:int -> int

  val try_acquire : t -> pid:int -> int option
  (** {!Kex_lock.try_acquire}, then a name; [None] without waiting. *)

  val release : t -> pid:int -> name:int -> unit

  val with_name : t -> pid:int -> (int -> 'a) -> 'a
  (** Releases the name on exception. *)

  val try_with_name : t -> pid:int -> (int -> 'a) -> 'a option
  (** {!with_name} through {!try_acquire}: [None], without running [f] or
      waiting, when admission refuses. *)

  val k : t -> int
end
