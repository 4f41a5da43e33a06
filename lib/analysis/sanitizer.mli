(** Dynamic exclusion-discipline sanitizer.

    An opt-in online checker fed by {!Kex_sim.Runner.hooks}: create one per
    run, pass {!hooks} to the runner configuration, and collect
    {!findings} afterwards.  k-exclusion and name uniqueness are not its
    business: the runner's {!Kex_sim.Monitor} checks both on every run, and
    {!Lint} reports what it finds as S-monitor.  Checks:

    - {b S-protected-write}: a write to a cell whose region label matches the
      algorithm's [protected] metadata while the writer is not in its
      critical section;
    - {b S-spin-watchdog}: at least [spin_threshold] consecutive
      charged-remote plain reads of one cell by one process — a remote busy
      wait.  Waived when the cell's label matches [intended_spin]. *)

type cfg = {
  protected : string list;  (** region-label prefixes *)
  intended_spin : string list;  (** region-label prefixes; waives the watchdog *)
  spin_threshold : int;
}

val default_threshold : int
(** 8 — safely above any streak a correct local-spin algorithm produces
    (cache-coherent spins are charged once per invalidation; DSM local spins
    are never charged). *)

val config :
  ?spin_threshold:int ->
  protected:string list ->
  intended_spin:string list ->
  unit ->
  cfg

type t

val create : Kex_sim.Memory.t -> cfg -> t
val hooks : t -> Kex_sim.Runner.hooks
val findings : t -> Finding.t list

val check_unique_names : k:int -> (int * int) list -> string option
(** [check_unique_names ~k holders] over [(pid, name)] pairs: [Some message]
    on the first out-of-range or duplicated name.  Pure; the model-checker
    hunt tests run it on every explored state. *)
