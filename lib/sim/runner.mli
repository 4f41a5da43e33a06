(** Drives N processes through noncritical / entry / critical / exit cycles
    under a scheduler, a cost model and a failure plan, producing per-process
    remote-reference statistics — the paper's complexity measure. *)

type workload = {
  acquire : pid:int -> int Op.t;
      (** entry section; returns the name used inside the critical section
          (plain k-exclusion protocols return 0) *)
  release : pid:int -> name:int -> unit Op.t;  (** exit section *)
  check_names : bool;  (** true for k-assignment protocols *)
  cs_body : (pid:int -> name:int -> unit Op.t) option;
      (** program executed inside the critical section, after the dwell
          delay — e.g. an operation on the wait-free inner object of the
          Section 1 methodology.  Its remote references are attributed to
          the acquisition. *)
}

val plain_workload :
  acquire:(pid:int -> int Op.t) ->
  release:(pid:int -> name:int -> unit Op.t) ->
  check_names:bool ->
  workload
(** [cs_body = None]. *)

type hooks = {
  h_step :
    pid:int ->
    step:Op.step ->
    value:Op.value ->
    remote:int ->
    phase:Monitor.phase ->
    footprint:Op.Footprint.t option ->
    unit;
      (** called after every executed step with its result, the number of
          remote references charged, the phase the process was in {e when it
          took the step}, and (for atomic blocks) the recorded footprint *)
  h_event : pid:int -> Op.event -> unit;
      (** called on every [Mark] event, after the monitor sees it *)
  h_crash : pid:int -> unit;  (** called when the failure plan kills a pid *)
}
(** Observation hooks for online checkers (e.g. the analysis sanitizer) and
    recorders ({!Trace.hooks}): strictly read-only — the runner's behaviour
    does not depend on them. *)

type config = {
  n : int;  (** number of processes *)
  k : int;  (** exclusion degree *)
  iterations : int;  (** critical-section acquisitions per participant *)
  cs_delay : int;  (** scheduling turns spent inside the critical section *)
  noncrit_delay : int;  (** turns spent in the noncritical section *)
  scheduler : Scheduler.t;
  failures : Failures.plan;
  participants : int list option;
      (** pids that actually contend ([None] = all).  Running [c] participants
          bounds contention by [c], the paper's notion of "contention at most
          c" (maximum number of processes outside their noncritical
          sections). *)
  step_budget : int;  (** 0 = choose automatically *)
  hooks : hooks option;  (** online observation callbacks *)
}

val config :
  ?iterations:int ->
  ?cs_delay:int ->
  ?noncrit_delay:int ->
  ?scheduler:Scheduler.t ->
  ?failures:Failures.plan ->
  ?participants:int list ->
  ?step_budget:int ->
  ?hooks:hooks ->
  n:int ->
  k:int ->
  unit ->
  config
(** Defaults: 3 iterations, [cs_delay] 2, [noncrit_delay] 0, round-robin
    scheduler, no failures, all processes participate, automatic budget. *)

type proc_stats = {
  participated : bool;
  completed : bool;  (** finished all iterations *)
  faulty : bool;  (** crashed by the failure plan *)
  acquisitions : int;
  remote_per_acq : int array;
      (** remote references charged to each completed acquisition (entry +
          critical-section body + exit), in order *)
  total_remote : int;
  total_local : int;
  steps : int;
}

type result = {
  ok : bool;  (** no safety violation, and every nonfaulty participant completed *)
  violations : string list;
  stalled : bool;  (** step budget exhausted before completion *)
  total_steps : int;
  max_in_cs : int;  (** high-water mark of concurrent critical sections *)
  max_contention : int;
      (** high-water mark of processes outside their noncritical sections —
          the paper's contention measure *)
  procs : proc_stats array;
}

val run : config -> Memory.t -> Cost_model.t -> workload -> result

val exec_step : Memory.t -> Op.step -> Op.value
(** Semantics of a single atomic step, exposed for tests and the model
    checker. *)
