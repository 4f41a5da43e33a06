(** [kexd serve]: the sharded resilient KV store on a TCP socket, with the
    paper's resilience-and-scaling trade observable on the wire.

    The store is split into [shards] independent {!Kex_resilient.Kv_store}
    shards, each behind its {e own} (N,k)-assignment wrapper and each with
    its own submission ring drained by [workers] dedicated domains.  Keys
    route to shards by hash, so per-shard contention stays <= [k] while
    aggregate mutator parallelism is [shards * k].  A shard's worker
    domains start on first use — its first ring push, or the first [KILL]
    aimed at one of them — so a healthy server, whose mutations all run on
    the reactors, starts none.

    Connections are owned by [reactors] {!Reactor} event-loop domains:
    accept round-robins across them and each loop multiplexes its
    connections with poll(2).  The plane dispatches per socket read.  Each
    reactor is one more process of every shard's wrapper (N = workers +
    reactors): the mutations decoded from one read, on a quiet shard
    (owned, unfenced, empty ring, no kill pending), run on the reactor
    through a no-wait admission, with their replies written alongside the
    read's other replies.  A refused admission, or a busy shard, sends the
    list to the shard's ring as one list, under one lock and with at most
    one worker wakeup; a second worker is woken only when the first leaves
    a backlog.  So a reactor never waits on a slot.  Workers drain their
    shard's ring in batches and enter the store through one admission and
    one commit per batch, amortizing the wrapper, and deliver the
    responses bound for one connection through the reactor's lock-free
    mailbox as one coalesced write, with one deduplicated wakeup per
    drained batch.  Slow clients are backpressured by a bounded output
    buffer ([out_hwm]/[slow_drain_s]) instead of growing the heap.  Requests may
    carry an id and be pipelined; an untagged (v1) request is answered in
    order as long as the client keeps one request in flight, which is the
    v1 contract.

    Up to [k-1] workers {e of one shard} may crash (chaos schedule or the
    [KILL] admin command) without a single client-visible failure — their
    claimed batches are re-dispatched and their admission slots are simply
    lost; other shards never notice.  Killing [k] workers of a shard wedges
    that shard (and only that shard), which is exactly the paper's
    resilience boundary.

    GETs take a separate, wait-free read plane: the reactor answers them
    straight from one atomic load of the owning shard's committed head
    (the universal object's commit cell; a mutation is acknowledged only
    after its commit) — no ring, no worker, no admission slot.  Reads therefore stay live even on a fully wedged
    shard; only mutations pay the admission path.  SCAN and the control
    plane are answered on the loop too.  Sockets are never owned by
    workers, so a worker death cannot sever a connection.  Crashes are
    cooperative (OCaml domains cannot be hard-killed): a killed worker
    parks forever holding its slot and is only reaped at shutdown.

    {b Cluster mode} ([cluster] in the config, or {!enable_cluster}): N
    nodes form a shared-nothing cluster over the same [shards] global
    shards.  Every node allocates every shard but serves only the ones it
    owns per the epoch-versioned routing table
    ({!Kex_cluster.Routing}); a request for an unowned shard is answered
    [MOVED shard epoch addr], and [TOPO] returns the whole table.  Shards
    move between live nodes with [HANDOFF] (bulk snapshot, fence + drain,
    delta + epoch bump, routing flip — zero acknowledged writes lost), and
    [kill-node] chaos crashes the whole process abruptly, the failure unit
    the routing layer must route around.  A shard hands off one HANDOFF at
    a time: a second HANDOFF of a shard already being handed off answers
    [ERR].

    Each shard's state machine — ownership, the route decision, the
    migration fence and handoff claim, in-flight accounting, kills, the
    worker loop and its lazy start — lives in the I/O-free {!Shard}; this
    module keeps decode, reply framing, the GET plane, cluster RPC, chaos
    and STATS.  The listener is closed once, by {!stop} or {!crash}, and
    only that ends the accept loop: any other failed accept (fd
    exhaustion) is retried after a short pause. *)

type config = {
  port : int;  (** 0 picks an ephemeral port — read it back with {!port} *)
  workers : int;  (** worker domains {e per shard} *)
  k : int;  (** per-shard admission bound; requires [1 <= k <= workers] *)
  shards : int;  (** independent admission domains; keys route by hash *)
  algo : Kex_runtime.Kex_lock.algo;
  chaos : Chaos.event list;
  cluster : (int * string list) option;
      (** [Some (node, addrs)]: join a cluster as [addrs]'s [node]-th
          member ([addrs] are "host:port", identical on every node, with
          [shards] then the {e global} shard count).  Only usable when
          ports are fixed up front; tests on ephemeral ports use
          {!enable_cluster} after {!start} instead. *)
  reactors : int;  (** event-loop domains owning the connections; at least 1 *)
  out_hwm : int;
      (** Reactor backpressure: unsent output bytes past which a
          connection leaves the read set until it drains. *)
  slow_drain_s : float;
      (** Reactor backpressure: a connection paused this long with no
          drain progress is dropped. *)
  log : string -> unit;  (** sink for progress lines; ignore for quiet *)
}

val default_config : config
(** port 7070, 1 shard, 4 workers, k=2, [Fast_path], no chaos, no cluster,
    2 reactors (256 KiB watermark, 5s slow-drain), silent. *)

type t

val start : config -> t
(** Bind, spawn the listener and the reactor domains (and the chaos
    thread if a schedule was given), and return immediately.  No worker
    domain is spawned here: each shard spawns its [workers] once, on
    first use.  Raises [Invalid_argument] on a config with [workers],
    [shards] or [reactors] below 1, or [k] outside [1..workers]. *)

val port : t -> int

val shard_of_key : t -> string -> int
(** The server's key routing, exposed so tests can aim kills at the shard
    that owns a given key. *)

val kill_worker : t -> int -> (unit, string) result
(** Programmatic [KILL] by global worker id (shard [s]'s workers are ids
    [s*workers .. s*workers + workers - 1]) — what the admin command and
    tests use.  It starts the victim's shard's workers if they have not
    started.  Until the victim parks holding its slot, its shard's
    mutations all go through the ring, so the kill lands at the victim's
    next admission boundary. *)

val enable_cluster : t -> node:int -> addrs:string list -> unit
(** Join a cluster as [addrs]'s [node]-th member.  Ownership and routing
    bootstrap deterministically (shard [s] owned by node [s mod n], epoch
    1), the same table every node and cluster-aware client computes from
    the shared node list.  Call right after {!start}, before traffic. *)

val crash : t -> unit
(** Abrupt whole-node crash — what [kill-node] chaos fires: stop accepting
    and have every reactor sever its connections, draining nothing, those
    it is handed later included.  The process keeps running (workers
    idle) so a harness can still {!stop} it cleanly, but to clients and
    cluster peers the node is gone. *)

val handoff : t -> shard:int -> addr:string -> (unit, string) result
(** Programmatic [HANDOFF]: live-migrate [shard] to the node at [addr]
    (claim, bulk snapshot, fence + drain, delta + epoch bump, routing
    flip).  [Error] leaves ownership at this node; a shard already being
    handed off answers [Error] at once. *)

val adopt : t -> shard:int -> (unit, string) result
(** Forced takeover of an unowned shard at the successor epoch — the
    failover move after a [kill-node]: the node sends itself a final,
    empty migration import, which one of its reactors installs.  The dead
    owner's data is gone (shared-nothing, no replication); the shard
    restarts empty, even on a node that held a copy of it.  Blocks for
    that round trip to its own listener, so it must not be called from a
    reactor. *)

val stats_pairs : t -> (string * int) list
(** The [STATS] reply: metrics counters (merged exactly across shards) plus
    store/admission state, per-shard op counts and [worker_domains], the
    worker domains spawned so far. *)

val stop : ?drain_timeout_s:float -> t -> unit
(** Graceful shutdown: stop accepting, drain in-flight requests (bounded
    wait), reap crashed workers so their slots release, refuse undispatched
    requests with an error, join everything.  No worker domain starts once
    [stop] has begun; a mutation bound for a shard whose workers never
    started is refused as shutting down. *)

val run : ?duration_s:float -> config -> unit
(** [start], then block until SIGINT/SIGTERM (or [duration_s] elapses), then
    [stop].  The CLI entry point. *)
