(** Execution trace recording and schedule replay.

    A trace records, in order, every atomic step (with its value and
    remote-reference count) and every monitor event of a run.  The extracted
    {!schedule} — the sequence of pids that took steps — can be replayed with
    {!Scheduler.replay} to reproduce an interleaving exactly, e.g. to shrink
    or re-examine a failure found under a random scheduler. *)

type entry =
  | Stepped of { pid : int; step : string; value : int; remote : int }
      (** [remote] is the number of remote references the step was charged:
          0 or 1 for single-cell steps, the per-cell footprint total for an
          [Atomic_block]. *)
  | Event of { pid : int; event : string }
  | Crashed of { pid : int }

type t

val create : ?capacity:int -> ?record_schedule:bool -> unit -> t
(** Keeps the most recent [capacity] entries (default 100_000).  The
    {!schedule} is kept in full — it grows by one element per executed step
    for the whole run, without bound — unless [record_schedule] is [false]
    (default [true]), which disables schedule capture entirely so that
    long-running traces stay bounded by [capacity]. *)

val records_schedule : t -> bool
(** Whether this trace captures the (unbounded) replay schedule. *)

val record_step :
  ?footprint:Op.Footprint.t -> t -> pid:int -> step:Op.step -> value:int -> remote:int -> unit
(** [footprint] annotates an [Atomic_block] step with the cells it read and
    wrote, so the rendered trace shows the block's real memory behaviour. *)

val record_event : t -> pid:int -> event:Op.event -> unit
val record_crash : t -> pid:int -> unit

val hooks : t -> Runner.hooks
(** Records every step, event and crash of a run into [t]: pass it to
    {!Runner.config} as [~hooks]. *)

val entries : t -> entry list
(** Oldest first (within the retained window). *)

val length : t -> int
(** Total entries recorded (including evicted ones). *)

val schedule : t -> int list
(** The pid of every executed step, in execution order — feed to
    {!Scheduler.replay}.  Empty when the trace was created with
    [~record_schedule:false]. *)

val pp : ?last:int -> Format.formatter -> t -> unit
