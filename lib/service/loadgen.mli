(** [kexd loadgen]: drive a kexd server from client domains and measure what
    the resilience trade looks like from outside — throughput, p50/p99/max
    latency, and errors, overall, per phase (so before/during/after a chaos
    kill are separable) and per op class.

    Each client domain runs one poll(2) loop over [conns_per_client]
    connections.  Each connection keeps a window of [pipeline] = W
    id-tagged requests in flight (responses match by id, any order; W = 1
    is a window of one); latency is stamped at {e enqueue} — before the
    socket write — so in-window queueing delay is charged to the request.

    A request that times out or loses its connection counts as an error and
    the client reconnects (with exponential backoff, 50 ms doubling to a
    2 s cap; requests routed to a node inside its backoff window fail fast,
    at most [pipeline] per connection per poll round while any node
    answers and per 50 ms when none does, without throttling the traffic
    to live nodes); against a stalled server
    (k workers killed) the tool therefore terminates with collapsed
    throughput instead of hanging.  Errors are attributed per node
    ([node_errors]).  Aggregation runs on fixed-layout histograms
    ({!Kex_sim.Stats.Hist}), merged exactly across connections.

    Keys route through a {!Kex_cluster.Routing} table.  Against a single
    server it has one entry, [host:port].  With [cluster] non-empty the
    client is cluster-aware: it bootstraps the epoch-versioned table with
    [TOPO] from any seed node, routes each key to its shard's owner,
    follows [MOVED] redirects (adopting strictly newer epochs only, so it
    chases at most one redirect per epoch), and refreshes the table
    whenever a node stops answering.  Errors on [expect_dead] nodes are
    separately counted as expected — the kill-node experiment's gate
    exemption. *)

type config = {
  host : string;
  port : int;
  connections : int;  (** client domains *)
  duration_s : float;
  mix : (string * int) list;  (** weighted op mix, e.g. [("get",80);("set",20)] *)
  keys : int;  (** keyspace size — millions are fine *)
  dist : Keydist.dist;  (** key-choice distribution (uniform/zipfian/latest) *)
  value_size : int;
  value_size_max : int;
      (** when > [value_size], SET values draw a length uniformly from
          [[value_size, value_size_max]]; otherwise fixed [value_size] *)
  scan_len : int;  (** range length for [scan] ops *)
  seed : int;  (** per-connection PRNGs derive from this *)
  timeout_s : float;
  pipeline : int;  (** id-tagged requests in flight per connection *)
  conns_per_client : int;
      (** connections per client domain (total connections = [connections *
          conns_per_client]), multiplexed by the domain's poll loop — the
          connection-scaling knob *)
  wire : Protocol.wire;  (** text v1 or binary v2 framing *)
  phase_marks : float list;  (** split points (seconds) for per-phase stats *)
  cluster : string list;
      (** seed node addresses ("host:port"); non-empty switches on
          cluster-aware routing and makes [host]/[port] irrelevant *)
  expect_dead : string list;
      (** node addresses expected to die mid-run (kill-node chaos); their
          errors count as [expected_errors] in the summary *)
}

val default_config : config

val parse_mix : string -> ((string * int) list, string) result
(** ["get=80,set=20"] — kinds get/set/del/update/rmw/scan, non-negative
    weights, at least one positive.  [rmw] is a GET then a SET of the same
    key charged as one request; [scan] is an ordered range read of
    [scan_len] keys from a sampled start key. *)

val mix_to_string : (string * int) list -> string

type bucket = {
  label : string;
  requests : int;
  errors : int;
  window_s : float;
  p50_us : int;
  p99_us : int;
  max_us : int;
}

type summary = {
  requests : int;
  errors : int;
  wall_s : float;
  throughput_rps : float;
  p50_us : int;
  p99_us : int;
  max_us : int;
  phases : bucket list;
  ops : bucket list;
  redirects : int;  (** MOVED replies followed *)
  expected_errors : int;
      (** the subset of [errors] attributed to [expect_dead] nodes; gates
          subtract these ("surviving shards saw zero errors") *)
  node_errors : (string * int) list;  (** per-node error attribution *)
}

val run : config -> summary
(** Raises [Invalid_argument] before any domain starts if [connections],
    [conns_per_client], [pipeline] or [keys] is below 1. *)

val to_json : config -> summary -> Json.t
(** The run record: schema [kexclusion-serve/v6], provenance-stamped
    (git_rev, hostname), with the [config] block, the [totals] object
    (requests, errors, expected_errors, redirects, wall_s, throughput_rps,
    latency_us), per-[phases] and per-[ops] buckets, and [node_errors]
    attributing errors per node. *)

val pp_summary : Format.formatter -> summary -> unit
