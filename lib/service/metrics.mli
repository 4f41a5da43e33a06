(** Server-side counters, all atomic so worker domains and connection
    threads update them without locks.  Each instance also keeps per-class
    latency histograms in the fixed {!Kex_sim.Stats.Hist} bucket layout, so
    the server can hold one instance per shard and merge them exactly
    (bucketwise count add) when answering [STATS] — percentiles stay
    well-defined under sharding, which concatenating raw samples would not
    give. *)

type op_class =
  | C_get
  | C_set
  | C_del
  | C_update
  | C_scan
  | C_moved
      (** Cluster redirects: requests answered [MOVED] because this node
          does not own the key's shard (client side: responses that had to
          be chased to another node). *)

val op_classes : op_class array
(** Every class, in {!class_index} order. *)

val class_index : op_class -> int
(** The class's position in {!op_classes}: [0 .. Array.length op_classes - 1]. *)

type t

val now_us : unit -> int
(** Monotonicized wall clock in microseconds: [Unix.gettimeofday] floored by
    a process-wide high-water mark, so consecutive stamps never decrease and
    latency deltas taken from it are never negative.  Use this for latency
    stamps; keep raw wall time only where absolute time matters (deadlines,
    log offsets). *)

val create : unit -> t

val record : t -> op_class -> lat_us:int -> unit
(** Record one completed op.  [lat_us] is clamped to [>= 0] once, before it
    reaches the sum, max {e and} histogram, so all three views agree. *)

val record_many : t -> op_class -> n:int -> lat_us:int -> unit
(** Record [n] completed ops of one class at the same latency — a batch's
    per-item share — with one update per counter.  Exactly equivalent to
    [n] calls of {!record}; [n <= 0] records nothing. *)

val incr_errors : t -> unit
val incr_deaths : t -> unit
val incr_connections : t -> unit
val incr_redispatched : t -> unit
val incr_batches : t -> unit
(** One admission entry that applied a batch — a worker's or a reactor's
    inline one. *)

val incr_inline_admissions : t -> unit
(** A batch a reactor applied itself, through a no-wait admission, with no
    ring, worker wakeup or mailbox post (also counted in [batches]). *)

val incr_inline_aborts : t -> unit
(** A reactor's no-wait admission that refused; the rest of its list went
    to the ring.  [inline_admissions / (inline_admissions + inline_aborts)]
    is the share of attempts that paid off. *)

val incr_inline_reads : t -> unit
(** A read (a SCAN) answered wait-free on the connection plane from the
    shards' committed heads, bypassing the submission rings and
    admission. *)

val incr_read_batch : t -> gets:int -> unit
(** One batch of [gets] GETs resolved together on the read plane (the GETs
    of one socket read, one head load per shard): adds [gets] to
    [inline_reads] and 1 to [read_batches]. *)

val incr_migrations_out : t -> unit
(** A shard handed off to another node (source side, counted at the
    routing flip). *)

val incr_migrations_in : t -> unit
(** A shard received from another node (destination side, counted at the
    final import). *)

val served : t -> int
val deaths : t -> int

val pairs : t -> (string * int) list
(** [pairs_merged] of a single instance. *)

val pairs_merged : t list -> (string * int) list
(** Snapshot across instances as [STATS]-reply pairs: summed [served],
    [errors], [deaths], [connections], [redispatched], [batches],
    [inline_admissions], [inline_aborts], [inline_reads], [read_batches], merged overall [p50_us]/[p99_us], plus per-class
    [served_*], [mean_us_*], [p99_us_*], [max_us_*]. *)
