(** Breadth-first exhaustive exploration with invariant checking and
    counterexample extraction. *)

type 'state violation = {
  property : string;  (** name of the violated invariant *)
  trace : (string * 'state) list;
      (** transition labels and states from an initial state to the bad one;
          the first label is ["init"] *)
}

type 'state report = {
  states : int;  (** distinct reachable states *)
  transitions : int;  (** explored transitions *)
  complete : bool;  (** false if the [max_states] cap was hit *)
  violation : 'state violation option;  (** first violation found, if any *)
}

val check :
  (module System.MODEL with type state = 's) -> ?max_states:int -> unit -> 's report
(** Explore breadth-first from the initial states, checking every
    invariant on every state.  Stops at the first violation.  Default cap:
    2_000_000 states.  Edge recording is off: [check] never reads the edge
    set, so it explores without accumulating an O(transitions) structure.
    Per state it keeps two ints, its predecessor and the move that reached
    it; a violation's labels are forced from those, by re-running
    [next] along its trace. *)

val possible_progress_many :
  (module System.MODEL with type state = 's) ->
  ?max_states:int ->
  cases:(('s -> bool) * ('s -> bool)) list ->
  unit ->
  ('s * int) option list
(** Builds the reachable state graph once and, for each (waiting, goal)
    pair, checks that from every reachable state satisfying [waiting] there
    exists a path to a state satisfying [goal].  Each result is a stuck
    state (and its index) if one exists — i.e. a reachable configuration
    from which the goal is unreachable, witnessing a possible
    deadlock/lockout. *)

val hunt :
  (module System.MODEL with type state = 's) ->
  ?on_step:('s -> string option) ->
  seeds:int list ->
  steps:int ->
  unit ->
  's violation option
(** Randomized safety search: one random walk per seed, [steps] transitions
    long, checking every invariant along the way.  Finds deep violations that
    exhaustive search cannot reach (used against mutants whose bugs need
    long schedules); returns the full violating trace.

    [on_step] is an external checker invoked on the initial state and after
    every transition; returning [Some property] stops the walk and reports
    a violation of [property] with the usual trace.  Labels are forced only
    for the trace of a violation.  This is how checkers that are not part of the
    model — e.g. the analysis sanitizer's duplicate-name discipline — ride
    along a randomized hunt. *)

val pp_violation :
  (Format.formatter -> 's -> unit) -> Format.formatter -> 's violation -> unit
