(** The kexlint analyzer: static lint passes over {!Op_cfg} graphs plus the
    dynamic {!Sanitizer}, combined per algorithm/model subject.

    Static checks (run per representative pid, deduplicated by site):

    - {b L1-remote-spin}: a CFG cycle performs accesses that stay remote on
      every iteration — under DSM any access to a cell the spinner does not
      own, under CC any read-modify-write;
    - {b L2-invalidation-in-loop} (CC): a cycle writes a shared cell, so each
      iteration invalidates every other cached copy;
    - {b L3-name-leak}: from a [Cs_enter m] node (m < k-1) some terminating
      path never writes 0 to the renaming bit [fig7.X[m]];
    - {b L4-bfaa-range}: a [Bounded_faa] whose bounds make it inert;
    - {b A-incomplete}: the bounded exploration hit a cap, so the absence of
      findings is only a lower bound.

    Findings at sites matching the algorithm's declared [intended_spin]
    metadata are reported as waived. *)

type subject = {
  sub_name : string;
  sub_model : Kex_sim.Cost_model.model;
  sub_n : int;
  sub_k : int;
  sub_meta : Kexclusion.Registry.lint_meta;
  sub_make : unit -> Kex_sim.Memory.t * Kex_sim.Runner.workload;
      (** deterministic fresh-instance builder: same allocations and
          addresses on every call *)
  sub_name_cell : string;  (** label of the renaming-bit region *)
}

val payload_label : string
(** ["cs.payload"] — the shared cell the analysis critical-section body
    writes; always treated as protected by the sanitizer. *)

val subject_of_algo :
  model:Kex_sim.Cost_model.model ->
  algo:Kexclusion.Registry.algo ->
  n:int ->
  k:int ->
  subject

val static_findings : ?pids:int list option -> subject -> Finding.t list
(** Run L1–L4 on the CFGs of the given pids (default: pid 0 and pid n-1). *)

type report = {
  r_subject : subject;
  r_findings : Finding.t list;
  r_static : int;  (** count of static findings *)
  r_dynamic : int;
}

val analyze : ?static_only:bool -> subject -> report
val violations : report -> Finding.t list
(** Non-waived findings. *)

val clean : report -> bool
(** No non-waived findings. *)
