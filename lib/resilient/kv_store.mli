(** A (k-1)-resilient in-memory key-value store for N processes — the
    methodology applied to a realistic shared object.

    All operations are linearizable; up to k-1 client processes may crash
    anywhere (including mid-operation) without affecting availability; when
    at most k clients operate concurrently, operations never wait. *)

type t

type image
(** A whole state of the store, built away from it with {!stage} — how a
    migrated shard arrives: its chunks are staged into a private image,
    which one {!Install} then commits. *)

(** The store's operation alphabet, exposed so batching callers (the
    networked service's per-shard workers) can submit several operations
    through one admission. *)
type op =
  | Set of string * string
  | Get of string
  | Delete of string
  | Update of string * (string option -> string option)
  | Fetch_add of string * int
  | Install of image
      (** Replace the whole state with the image: one operation and one
          commit however many keys it holds, answered [Unit]. *)

type result = Unit | Value of string option | Existed of bool | New_value of int

val create : ?algo:Kex_runtime.Kex_lock.algo -> n:int -> k:int -> unit -> t

val set : t -> pid:int -> key:string -> string -> unit
val get : t -> pid:int -> key:string -> string option
(** Linearized read {e through the admission wrapper} — the paper's
    uniform path.  Prefer {!read} unless you specifically want the wrapped
    access (e.g. to measure it). *)

val read : t -> key:string -> string option
(** Wait-free read of the committed state ({!Resilient.read}): no pid, no
    name, no slot.  Reflects every acknowledged mutation (a mutation
    returns only after its commit) and keeps answering when all k
    admission slots are wedged by crashed clients — the service's GET
    path. *)

val read_many : t -> string array -> string option array
(** {!read} for every key of the array, all from {e one} committed state:
    the batch linearizes at that single head read.  The
    lookups walk the index in lockstep so their cache misses overlap — the
    service resolves each socket read's GETs this way. *)

val scan : t -> start:string -> count:int -> (string * string) list
(** Wait-free ordered range read: the first [count] bindings with key >=
    [start], ascending, all taken from {e one} committed state (the
    store's map is the sorted index, maintained by every mutation).  Like
    {!read}, it needs no pid and keeps answering on a wedged store. *)

val read_versioned : t -> int * (string * string) list
(** Consistent (version, bindings) pair from one head read — the cheap
    shard snapshot the live-migration story needs.  The version counts the
    operations committed in that state. *)

val read_version : t -> int
(** Operations committed in the current state (the version of
    {!read_versioned}). *)

val delete : t -> pid:int -> key:string -> bool
(** [true] iff the key existed. *)

val update : t -> pid:int -> key:string -> (string option -> string option) -> unit
(** Atomic read-modify-write of one binding; [None] deletes.  The function
    must be pure (helpers may re-run it). *)

val fetch_add : t -> pid:int -> key:string -> int -> int
(** Atomic fetch-and-add on the key's decimal value (absent or non-numeric
    reads as 0); returns the new value.  The networked service's [UPDATE]
    command — a closure-free RMW that serializes over a wire. *)

val perform_batch : t -> pid:int -> op list -> result list
(** Linearize the ops as one batch, in order, through {e one}
    (N,k)-assignment entry and one commit — see {!Resilient.perform_batch}.
    The batch is applied in one ordered pass: sorted by key (a batch already
    in key order is not sorted), it is written in one descent of the index,
    each key's operations run in list order on that key's value, and the
    results come back in list order.  An {!Install} replaces the state
    between the passes of the operations before and after it. *)

val try_perform_batch : t -> pid:int -> op list -> result list option
(** {!perform_batch} through a no-wait admission: [None], with nothing
    applied, when the wrapper refuses — see {!Resilient.try_perform_batch}. *)

val empty_image : image

val stage : image -> (string * string option) list -> image
(** Apply changes to an image, in order ([Some v] sets, [None] deletes),
    through the same ordered pass as a batch.  Pure: no admission, no
    commit, and the store does not see the result until an {!Install}
    commits it. *)

val size : t -> int
(** Keys in the committed state; O(1), the count is kept by every write. *)

val snapshot : t -> (string * string) list
(** Committed bindings, sorted by key (linearized read, no slot needed). *)

val operations : t -> int

val apply_calls : t -> int
(** Apply invocations including helper re-executions (see
    {!Resilient.apply_calls}) — the service exposes it via [STATS]. *)

val assignment : t -> Kex_runtime.Kex_lock.Assignment.t
(** The admission wrapper — exposed for failure-injection demos and tests. *)
