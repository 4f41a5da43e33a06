(** Analyzer findings, shared between the static lint passes and the dynamic
    sanitizer.

    A finding is {e waived} when its site matches the algorithm's declared
    [intended_spin] metadata (see {!Kexclusion.Registry.lint_meta}): the
    busy-wait is a known, intended departure from the local-spin discipline
    (the paper's unbounded Table 1 baselines), reported but not counted as a
    violation. *)

type check =
  | L1_remote_spin
      (** a loop performs accesses that stay remote on every iteration *)
  | L2_invalidation_in_loop
      (** a busy-wait loop writes shared cells (CC: each write invalidates
          every other cached copy, defeating local spinning) *)
  | L3_name_leak
      (** some path from a critical section to termination never releases
          the name's bit *)
  | L4_bfaa_range  (** a [Bounded_faa] whose bounds make it a no-op or stuck *)
  | A_incomplete
      (** the CFG exploration hit a node or depth cap — or, for srclint, a
          source file could not be parsed, so its verdict is a lower bound *)
  | S1_lock_leak
      (** a [Mutex.lock] outside [Sync.with_lock]'s own body shape: a raise
          or an early return before the unlock would leave it held *)
  | S2_wait_no_recheck
      (** a [Condition.wait] not re-checked by an enclosing while loop *)
  | S3_blocking_under_lock
      (** a blocking syscall ([Unix.read]/[write]/[select]/…, [Thread.delay],
          [Domain.join]) is reachable while a mutex is held *)
  | S4_nonatomic_rmw
      (** an [Atomic.set] whose value derives from an [Atomic.get] of the same
          cell — the lost-update shape; use a CAS loop or [fetch_and_add] *)
  | S5_unguarded_state
      (** mutable state the guarded-by manifest assigns to a lock is accessed
          without that lock held (or a manifest-declared atomic-only module
          uses a mutex after all) *)
  | S_kexclusion  (** more than [k] processes observed in critical sections *)
  | S_duplicate_name  (** two holders share a name, or a name out of range *)
  | S_protected_write  (** write to a protected cell outside a critical section *)
  | S_spin_watchdog
      (** a process kept issuing charged-remote reads of one cell *)
  | S_stall  (** the run exhausted its step budget *)
  | S_monitor  (** a safety violation reported by the run-time monitor *)

type t = {
  check : check;
  site : string;  (** source-level site: region label or statement rendering *)
  pid : int option;
  detail : string;
  waived : bool;
  witness : string list;  (** CFG path or execution-trace excerpt *)
}

val id : check -> string
(** Stable string id used in the JSON report, e.g. ["L1-remote-spin"]. *)

val is_static : check -> bool
(** [true] for the CFG lint passes, [false] for sanitizer findings. *)

val kills : check -> t list -> bool
(** [kills c fs]: [c] fires un-waived among [fs] — the kill test for a
    seeded mutant that expects [c], in both the {!Mutants} and the
    {!Srclint_mutants} corpus. *)

val pp : Format.formatter -> t -> unit
