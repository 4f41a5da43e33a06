(** The traced instance of [Kexclusion.Figures]: a free monad whose steps
    are the figures' shared accesses, so {!Shipped} can run the shipped
    text one access at a time.  Building a computation performs nothing;
    it stops at its next access with the continuation that takes the
    result.  Continuations are pure values, so an explorer state keeps one
    per process and resumes it from any later state, with nothing to undo
    or replay.  [await] is one access, enabled only where its predicate
    holds.  Private variables, which [Figures] reads and writes outside the
    monad, live in the [ctx]; the explorer saves them with each state and
    restores them before it resumes a call.  Every [get] is logged in the
    running call's history.

    {2 Why equal keys have equal successors}

    {!Shipped} keys a state on the memory, every private variable and, per
    process, its section (with what it holds), its crashed flag and its
    current call's history: each access's kind, cell and result, and each
    private read's value.  A call's computation is a function of the text,
    its arguments (the pid, and the name it releases) and the values it
    was given, which are the history; so under equal keys each process
    holds the same continuation, stopped at the same access.  An access's
    result and effect depend only on the memory, and a new call only on
    the section and the private variables.  A finished {!scope} leaves one
    event with its result's code in place of its history: what follows it
    sees only that result and the private variables, and the history
    before it fixes where it began (the code after a scope is a thunk, so
    none of it runs before the collapse).  This assumes the figures keep
    no state outside [ctx]: their closures capture only constants, the pid
    and the values above.  Logging reads, instead of keying on the private
    variables a call began with, keeps a stale value the call overwrites
    before reading it (Figure 4's [slow]) from splitting states: 750,426
    → 303,350 at N = 3, k = 1.  Private values must be comparable with
    [=]. *)

type access =
  | Read of int
  | Write of int * int  (** cell, value *)
  | Faa of int * int  (** cell, delta *)
  | Bounded_faa of int * int * int * int  (** cell, delta, lo, hi *)
  | Cas of int * int * int  (** cell, expected, desired *)
  | Tas of int
  | Await of int * (int -> bool)
  | Swap of int * int  (** cell, value *)

include Kexclusion.Figures.MEMORY with type block = int and type cell = int

val create : procs:int -> ctx
(** Private variables hold one value per pid in [0..procs-1]. *)

val memory : ctx -> int array
(** The cells allocated so far, with their initial values. *)

val cell_name : ctx -> int -> string
val describe : ctx -> access -> string

val scope : ('a -> int) -> (unit -> 'a m) -> 'a m
(** [scope code body] runs [body ()]; once it finishes, its history is
    replaced by one event recording [code] of its result. *)

val save : ctx -> int array
(** Every private variable of every process as ids: equal vectors mean
    equal values. *)

val restore : ctx -> int array -> unit

type 'a run
(** A call in progress, with its history. *)

val start : ctx -> (unit -> 'a m) -> 'a run
val finished : 'a run -> 'a option
val history : 'a run -> int list

val perform : ctx -> int array -> 'a run -> (access * int array * int * 'a run) option
(** The access the call stands at, applied to a copy of the memory: the
    access, the new memory, its result and the continued call.  [None]
    when the call is finished or stands at an [Await] whose predicate
    fails.  [start] and [perform] run the figures' code: restore the
    private variables first. *)
