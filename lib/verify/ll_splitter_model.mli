(** Exploratory model: a {e long-lived} splitter grid — the one-shot
    renaming grid of [13] with the naive extension that a releasing process
    resets its splitter's Y bit.

    The companion paper's actual long-lived read/write renaming is more
    elaborate; this model exists to let the checker adjudicate whether the
    naive reset is already sound under the k-concurrency precondition (at
    most [procs] = k processes between acquire and release, crash budget
    k-1).  Checked properties: holders occupy distinct splitters (name
    uniqueness) and no process ever walks off the grid (the stop guarantee).
    See test_verify.ml for the verdict. *)

type state

val model :
  ?reset_on_release:bool ->
  procs:int ->
  k:int ->
  max_crashes:int ->
  unit ->
  (module System.MODEL with type state = state)
(** [reset_on_release = false] gives the verified one-shot behaviour (each
    process acquires at most once); [true] lets processes release and
    re-acquire through reset splitters. *)

val holding : state -> int -> bool
val crash_count : state -> int
