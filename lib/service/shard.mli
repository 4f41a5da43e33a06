(** One shard of [kexd serve]'s store as a state machine, with no I/O.

    A shard is one of the paper's (k-1)-resilient objects: a
    {!Kex_resilient.Kv_store} behind its own (N,k)-assignment wrapper,
    whose processes are the shard's worker domains and the server's
    reactors.  This module decides what happens to a list of mutations
    bound for the shard, and owns the state that decision reads: the
    store, ownership, the migration fence and its drain, the handoff
    claim, the in-flight count, pending kills, the worker loop and its
    lazy start, and the morgue where killed workers park.  A server's
    array of shards is its one table of shards, which the wait-free reads
    of {!read_many} and {!scan} span.

    It is polymorphic in the item a list carries, and the caller supplies
    how a worker applies a batch and how a domain is spawned, so it opens
    no socket and names no [Reactor], [Netio] or [Protocol] value —
    srclint's manifest declares it I/O-free, and [dune runtest] lints it. *)

val max_batch : int
(** Items a worker, or one inline attempt, applies per admission. *)

(** {1 Pools and shards} *)

type pool
(** What the shards of one server share: the worker count per shard, the
    stop flag, every worker domain spawned so far, and the morgue. *)

val pool :
  ?spawn:((unit -> unit) -> unit Domain.t) -> workers:int -> log:(string -> unit) -> unit -> pool
(** [workers] worker domains per shard, each started by [spawn] (default
    [Domain.spawn]) on the shard's first use.  [log] takes deaths and
    failed spawns. *)

type 'a t

val create :
  pool -> id:int -> store:Kex_resilient.Kv_store.t -> metrics:Metrics.t ->
  apply:(lpid:int -> 'a list -> unit) -> 'a t
(** Shard [id] over [store], with an empty ring, owned, and no worker
    started.  A worker [lpid] (its pid in the store's wrapper, [0 ..
    workers - 1]) runs [apply ~lpid batch] for each batch it pops: the
    batch's admission, its apply and its answers.  [metrics] takes the
    shard's batch, death and re-dispatch counts. *)

val store : 'a t -> Kex_resilient.Kv_store.t
(** The shard's store: its committed state, its counters and its
    wrapper. *)

val ring : 'a t -> 'a Wqueue.t
(** The shard's ring, for its counters.  Items enter it only through
    {!route} and {!run_inline}. *)

val metrics : 'a t -> Metrics.t

val owned : 'a t -> bool
(** One atomic load: what the GET plane reads, lock-free, before it
    answers from the shard. *)

val inflight : 'a t -> int
(** Items routed to the shard and not yet answered or refused. *)

(** {1 Routing} *)

type route =
  | Inline  (** the shard is quiet: the caller runs the list with {!run_inline} *)
  | Pushed  (** the list entered the ring; a worker answers it *)
  | Not_owner  (** this node does not own the shard: nothing counted *)
  | Shutting_down  (** stop has begun and the ring is refused: nothing counted *)

val route : 'a t -> 'a list -> route
(** Route a list as a whole: wait out an active fence, re-check ownership,
    and count the list in flight — all under the fence lock, so a fence
    set after the check drains this list too.  A quiet shard (owned,
    unfenced, empty ring, no kill pending, not stopping) answers
    [Inline]; otherwise the list enters the ring, starting the shard's
    workers if this is its first push.  Blocks only while a handoff holds
    the fence. *)

val run_inline : 'a t -> attempt:('a list -> bool) -> refuse:('a list -> unit) -> 'a list -> unit
(** Run a list {!route} answered [Inline]: [attempt chunk] applies and
    answers up to {!max_batch} items through a no-wait admission, or
    returns [false] having applied nothing.  The first refusal sends the
    rest of the list to the ring, and if the ring refuses it too (stop has
    begun) it goes to [refuse].  Every item leaves the in-flight count
    once. *)

(** {1 Kills} *)

val kill : 'a t -> lpid:int -> unit
(** Mark worker [lpid] for death, starting the shard's workers if they
    have not started.  Until the victim parks holding its slot, the kill
    is pending and every list routes to the ring, so the kill lands at the
    victim's next admission boundary: it re-dispatches its claimed batch,
    burns one slot and parks in the morgue. *)

val killed : 'a t -> lpid:int -> bool

(** {1 Ownership and handoff} *)

val set_owned : 'a t -> bool -> unit
(** Take or drop ownership, under the fence lock: cluster bootstrap and a
    completed import. *)

val claim_handoff : 'a t -> (unit, string) result
(** Start a handoff: under the fence lock, check that the shard is owned
    and no other handoff holds it, and hold it.  [Error] for an unowned
    shard or a second handoff; the holder ends its claim with
    {!end_handoff}. *)

val fence : 'a t -> timeout_s:float -> bool
(** Set the fence, then wait up to [timeout_s] for the in-flight count to
    reach 0.  [false] if it did not; the fence stays set either way. *)

val end_handoff : 'a t -> moved:bool -> unit
(** End the claim in one critical section: drop ownership if [moved],
    lift the fence and wake the routes it held, which then answer
    [Not_owner] or proceed. *)

(** {1 The table}

    A server's shards, indexed by id, are its one table of shards: a key
    lives in shard [Kex_cluster.Routing.key_shard ~shards key] of a table
    of [shards].  The reads below answer for the shards this node owns,
    off their committed heads, with no slot. *)

val read_many : 'a t array -> string array -> (string option, int) result array
(** A wait-free read of every key of the array, in key order, reading each
    shard's committed state once for all of that shard's keys
    ({!Kex_resilient.Kv_store.read_many}).  {!owned} is read once per
    shard the batch touches, right before that shard's read; the keys of
    an unowned shard are not read and answer [Error shard]. *)

val scan : 'a t array -> start:string -> count:int -> (string * string) list
(** The first [count] bindings with key >= [start], ascending, merged from
    the wait-free scans ({!Kex_resilient.Kv_store.scan}) of the owned
    shards.  Each shard's slice is one consistent state; a wedged shard
    still answers. *)

(** {1 Workers and shutdown} *)

val stopping : pool -> bool

val spawned : pool -> int
(** Worker domains spawned so far, over every shard of the pool. *)

val stop : pool -> unit
(** From here no worker starts and no list routes [Inline]. *)

val retire : pool -> 'a t array -> drain_timeout_s:float -> refuse:('a -> unit) -> unit
(** {!stop}, then let the rings drain (bounded by [drain_timeout_s]), open
    the morgue so parked workers release their slots, close every ring
    and [refuse] what was still queued, and join every worker domain. *)
