(** A (k-1)-resilient in-memory key-value store for N processes — the
    methodology applied to a realistic shared object.

    All operations are linearizable; up to k-1 client processes may crash
    anywhere (including mid-operation) without affecting availability; when
    at most k clients operate concurrently, operations never wait. *)

type t

(** The store's operation alphabet, exposed so batching callers (the
    networked service's per-shard workers) can submit several operations
    through one admission. *)
type op =
  | Set of string * string
  | Get of string
  | Delete of string
  | Update of string * (string option -> string option)
  | Fetch_add of string * int

type result = Unit | Value of string option | Existed of bool | New_value of int

val create : ?algo:Kex_runtime.Kex_lock.algo -> n:int -> k:int -> unit -> t

val set : t -> pid:int -> key:string -> string -> unit
val get : t -> pid:int -> key:string -> string option
(** Linearized read {e through the admission wrapper} — the paper's
    uniform path.  Prefer {!read} unless you specifically want the wrapped
    access (e.g. to measure it). *)

val read : t -> key:string -> string option
(** Wait-free read of the published snapshot: no pid, no name, no slot.
    Reflects every acknowledged mutation (publication happens before a
    mutation returns) and keeps answering when all k admission slots are
    wedged by crashed clients — the service's GET path. *)

val read_many : t -> string array -> string option array
(** {!read} for every key of the array, all from {e one} published
    snapshot: the batch linearizes at that single snapshot read.  The
    lookups walk the index in lockstep so their cache misses overlap — the
    service resolves each socket read's GETs this way. *)

val scan : t -> start:string -> count:int -> (string * string) list
(** Wait-free ordered range read: the first [count] bindings with key >=
    [start], ascending, all taken from {e one} published snapshot (the
    store's map is the sorted index, maintained by every mutation).  Like
    {!read}, it needs no pid and keeps answering on a wedged store. *)

val read_versioned : t -> int * (string * string) list
(** Consistent (version, bindings) pair from the published snapshot — the
    cheap shard snapshot the live-migration story needs. *)

val read_version : t -> int
(** Operations committed in the currently published snapshot. *)

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
(** Linearize each op in order through {e one} (N,k)-assignment entry —
    see {!Resilient.perform_batch}. *)

val apply_changes : t -> pid:int -> (string * string option) list -> unit
(** Bulk import for shard migration: apply changes in order ([Some v] =
    set, [None] = delete), batched <= 512 ops per admission entry.
    Borrowing [pid] is only safe while no other traffic uses it — migration
    destinations satisfy this because an unowned shard receives no client
    mutations. *)

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
