(** A sharded (k-1)-resilient KV store: S independent {!Kv_store} shards,
    each behind its own (N,k)-assignment wrapper, with keys routed by hash.

    This is the paper's scalability lever made concrete: aggregate mutator
    parallelism is S*k while per-shard contention (and therefore per-shard
    waiting) stays bounded by k, and the resilience guarantee holds {e per
    shard} — up to k-1 deaths inside a shard cost that shard admission slots
    only, and the remaining shards are untouched. *)

type t

val create : ?algo:Kex_runtime.Kex_lock.algo -> shards:int -> n:int -> k:int -> unit -> t
(** [n] and [k] are per shard: each shard admits pids [0..n-1] and at most
    [k] concurrent mutators. *)

val shard_count : t -> int
val shard : t -> int -> Kv_store.t
val shard_of_key : t -> string -> int
(** Deterministic (FNV-1a) key-to-shard routing. *)

val hash_key : string -> int
(** The raw FNV-1a key hash behind {!shard_of_key}, exposed so cluster
    clients and the routing layer compute the same shard ids without a
    store in hand. *)

val set : t -> pid:int -> key:string -> string -> unit

val read : t -> key:string -> string option
(** Wait-free read of the owning shard's committed state — no pid, no
    admission; answers even when that shard's k slots are all wedged.  See
    {!Kv_store.read}. *)

val read_many :
  owned:(int -> bool) -> t -> string array -> (string option, int) result array
(** {!read} for every key of the array, in key order, reading each shard's
    committed state once for all of that shard's keys
    ({!Kv_store.read_many}).  [owned] is asked once per shard the batch
    touches, right before that shard's read; the keys of a shard it
    refuses are not read and answer [Error shard] — the cluster's
    ownership check, shared by {!scan} and {!size}. *)

val scan : owned:(int -> bool) -> t -> start:string -> count:int -> (string * string) list
(** The first [count] bindings with key >= [start], ascending, merged from
    the wait-free scans ({!Kv_store.scan}) of the shards [owned] accepts.
    Each shard's slice is one consistent state; a wedged shard still
    answers. *)

val size : owned:(int -> bool) -> t -> int
(** Keys in the shards [owned] accepts. *)

val operations : t -> int
val apply_calls : t -> int
(** Summed across shards (each summand is a per-shard linearization
    counter, so the merge is exact). *)

val assignment : t -> int -> Kex_runtime.Kex_lock.Assignment.t
(** Shard [i]'s admission wrapper — for failure-injection tests. *)
