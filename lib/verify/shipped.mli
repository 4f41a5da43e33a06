(** Models of the shipped text: [Kexclusion.Figures] run on {!Traced}.

    Each process cycles through its noncritical section, an acquiring call
    ([entry] or [try_entry], either at every passage, for Figures 2, 4 and
    6 and MCS; [rename] for Figure 7), a holding section and a releasing
    call ([exit]; [unname]).  A move performs one shared access, except starting
    an acquiring call (none) and leaving the holding section (the release's
    first access, if any).  An idle process may retire for good, so
    progress cannot rely on arrivals; elsewhere it may crash, up to the
    budget, keeping what it holds.  Each block's calls run in a
    {!Traced.scope}.  Properties: ["k-exclusion"] (crashed holders count),
    ["names unique and in range"] (Figure 7), ["units returned"] (each live
    process's net fetch-and-add on every cell is -1, 0 or +1, and 0 when
    idle; a bounded add that did not apply counts 0: Figure 2's I2 and
    Figure 6's X count) and possible progress, through {!Explore} with
    {!acquiring} and {!holding}. *)

type state

val acquiring : state -> int -> bool
(** The process is live and inside its acquiring call. *)

val holding : state -> int -> bool

val held_name : state -> int -> int option
(** What a process holds: a Figure 7 name, or 0 for a lock. *)

type model = (module System.MODEL with type state = state)

module Make
    (F : Kexclusion.Figures.S
           with type 'a m = 'a Traced.m
            and type ctx = Traced.ctx
            and type cell = Traced.cell) : sig
  val fig2 : n:int -> max_crashes:int -> model
  (** One Figure 2 block: N = n, k = n-1, inner skip (Theorem 1's basis). *)

  val fig6 : n:int -> max_crashes:int -> model

  val fast_path_tree : n:int -> k:int -> max_crashes:int -> model
  (** Figure 4 over Figure 2 blocks, the composition [Kex_lock] admits
      through by default. *)

  val mcs : n:int -> max_crashes:int -> model
  (** The MCS queue lock, k = 1: the lock A1 measures, with no failure
      tolerance. *)

  val renaming : procs:int -> k:int -> max_crashes:int -> model
  (** Figure 7 with no enclosing k-exclusion: [procs <= k] is its
      precondition. *)
end

module Figures : module type of Make (Kexclusion.Figures.Make (Traced))
(** The text as shipped. *)
