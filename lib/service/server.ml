(* The kexd network server: a TCP listener plus worker domains serving a
   sharded (k-1)-resilient KV store.

   Data path: the store is split into S shards, each an independent
   Kv_store behind its *own* Kex_lock/Assignment admission wrapper, with a
   per-shard MPMC submission ring.  The connection plane owns the sockets:
   R reactor domains, each a poll(2) event loop over the connections it
   accepted.  Per socket read, the plane decodes every complete frame,
   answers control requests and SCANs inline, queues the GETs, and collects
   the mutations in per-shard pending lists in arrival order.  After the
   read is decoded each non-empty list is dispatched as one batch: one
   fence check, one ring lock, at most one worker wakeup.  Then the GETs
   are resolved as one batch off the wait-free snapshots: one snapshot read
   per shard, with the lookups walked down the tree in lockstep.  The item
   carries the connection and the request id, so a client may hold a whole
   window of requests in flight per connection.  An untagged v1 request is
   dispatched the same way; its reply keeps decode order only while the
   client keeps one request in flight, which is the v1 contract.

   Worker domains have shard affinity: each drains *its* shard's ring in
   batches, enters the shard store through one (N,k)-assignment admission
   per batch (amortizing the wrapper over the batch), executes, and posts
   all responses bound for one connection to its reactor as one coalesced
   write.  Because the ring wakes one worker per dispatched batch and
   recruits another only for a backlog, the workers contending for the
   shard's k slots track the load, not the number of requests in a read.
   Per-shard contention therefore stays <= k while aggregate mutator
   parallelism is S*k — the paper's scaling story — and a worker death
   costs one slot in one shard only.

   Fault injection: a "killed" worker (chaos schedule or the KILL admin
   command) crashes at its next admission boundary — it returns its
   claimed batch to the front of its shard's ring, then acquires an
   admission slot in its shard and parks forever holding it.  To the
   protocol this is exactly the paper's failure model: an undetectably
   crashed process inside the wrapper, costing one of that shard's k
   slots.  (OCaml domains cannot be hard-killed, so the crash is
   cooperative; parked workers are only reaped at shutdown so tests and CI
   exit cleanly.)  Killing up to k-1 workers of one shard costs slots but
   zero client-visible failures anywhere; killing k workers of a shard
   wedges that shard — and only that shard. *)

module Kex_lock = Kex_runtime.Kex_lock
module Kv_store = Kex_resilient.Kv_store
module Sharded = Kex_resilient.Sharded_store
module Routing = Kex_cluster.Routing
module Migration = Kex_cluster.Migration
module Sync = Kex_sync.Sync

type config = {
  port : int;  (* 0 = ephemeral; read back with [port] *)
  workers : int;  (* per shard *)
  k : int;
  shards : int;  (* cluster mode: the *global* shard count, same everywhere *)
  algo : Kex_lock.algo;
  chaos : Chaos.event list;
  cluster : (int * string list) option;  (* (this node's index, all node addrs) *)
  reactors : int;  (* event-loop domains owning the connections; >= 1 *)
  out_hwm : int;  (* reactor backpressure: unsent bytes that pause reads *)
  slow_drain_s : float;  (* reactor: paused this long with no drain = dropped *)
  log : string -> unit;
}

let default_config =
  { port = 7070;
    workers = 4;
    k = 2;
    shards = 1;
    algo = Kex_lock.Fast_path;
    chaos = [];
    cluster = None;
    reactors = 2;
    out_hwm = 256 * 1024;
    slow_drain_s = 5.0;
    log = (fun _ -> ()) }

(* Workers sweep at most this many items per admission; bounds both the
   latency a queued item can add to its batch-mates and the time one worker
   keeps a slot. *)
let max_batch = 32

(* A connection's server-side state, the user value of its reactor
   connection.  The socket belongs to one reactor's event loop; a worker
   "writes" by posting into that loop's lock-free mailbox.  [c_pending]
   counts dispatched requests not yet answered, so the reactor's drain
   waits them out before it closes the socket. *)
type conn = {
  c_fd : Unix.file_descr;
  c_pending : int Atomic.t;
  c_dec : Protocol.Req_decoder.t;
  (* Which framing this connection speaks — sniffed from its first byte and
     written once by the owning reactor before any request is dispatched,
     so the ring's mutex publishes it to every worker that replies here. *)
  mutable c_wire : Protocol.wire;
}

(* A dispatched request: the reactor connection to answer on and the id to
   echo ([None] for an untagged v1 request). *)
type item = { req : Protocol.request; rc : conn Reactor.conn; tag : int option }

(* One shard: its slice of the store (own admission wrapper), its ring, and
   its metrics (merged exactly at STATS time).

   The fence is the migration's write barrier: mutation dispatch takes
   [sh_fence_m], waits while [sh_fenced], and re-checks ownership before
   pushing, so once a migration sets the fence no new item can slip into the
   ring, and once it clears the fence latecomers see the flipped routing and
   get MOVED.  [sh_inflight] counts items pushed but not yet answered —
   the fence-holder drains by waiting for it to reach 0, which covers both
   the ring and batches already claimed by a worker. *)
type shard_ctx = {
  sh_id : int;
  sh_store : Kv_store.t;
  sh_queue : item Wqueue.t;
  sh_metrics : Metrics.t;
  sh_fence_m : Mutex.t;
  sh_fence_c : Condition.t;
  mutable sh_fenced : bool;
  sh_inflight : int Atomic.t;
}

(* Cluster-mode state: which node we are, everyone's address, the
   epoch-versioned routing table, and the ownership bitmap the data path
   consults.  Every node allocates all [shards] global shards (stores,
   rings, workers) and serves only the owned ones; an unowned shard's
   workers idle on an empty ring, and its store is the landing zone for a
   future migration in. *)
type cluster = {
  cl_node : int;
  cl_addrs : string array;
  cl_self : string;
  cl_routing : Routing.t;
  cl_owned : bool array;
}

type t = {
  cfg : config;
  store : Sharded.t;
  shard_ctxs : shard_ctx array;
  conn_metrics : Metrics.t;  (* connection-plane counters *)
  kill_flags : bool Atomic.t array;  (* indexed by global worker id *)
  (* The morgue: killed workers park here holding their admission slot until
     shutdown releases them. *)
  morgue_m : Mutex.t;
  morgue_c : Condition.t;
  mutable morgue_open : bool;
  listen_fd : Unix.file_descr;
  actual_port : int;
  stopping : bool Atomic.t;
  mutable worker_domains : unit Domain.t list;
  mutable listener : Thread.t option;
  mutable chaos_thread : Thread.t option;
  conns_m : Mutex.t;
  mutable conns : conn list;
  mutable reactors : conn Reactor.t array;
  started_at : float;
  mutable cluster : cluster option;
  crashed : bool Atomic.t;  (* kill-node chaos fired: abrupt teardown *)
}

let port t = t.actual_port
let total_workers t = t.cfg.shards * t.cfg.workers
let shard_of_key t key = Sharded.shard_of_key t.store key

let all_metrics t = t.conn_metrics :: Array.to_list (Array.map (fun s -> s.sh_metrics) t.shard_ctxs)

let stats_pairs t =
  Metrics.pairs_merged (all_metrics t)
  @ [ ("workers", total_workers t);
      ("workers_per_shard", t.cfg.workers);
      ("shards", t.cfg.shards);
      ("k", t.cfg.k);
      ("keys", Sharded.size t.store);
      ("ops_linearized", Sharded.operations t.store);
      ("apply_calls", Sharded.apply_calls t.store);
      ("open_conns", Sync.with_lock t.conns_m (fun () -> List.length t.conns));
      ("uptime_ms", int_of_float ((Unix.gettimeofday () -. t.started_at) *. 1000.)) ]
  @ [ ("ring_pushes", Array.fold_left (fun a s -> a + Wqueue.pushes s.sh_queue) 0 t.shard_ctxs);
      ("ring_wakeups", Array.fold_left (fun a s -> a + Wqueue.wakeups s.sh_queue) 0 t.shard_ctxs) ]
  @ [ ("reactors", Array.length t.reactors);
      ("reactor_wakeups", Array.fold_left (fun a r -> a + Reactor.wakeups r) 0 t.reactors);
      ("reactor_posts", Array.fold_left (fun a r -> a + Reactor.posts r) 0 t.reactors) ]
  @ Array.to_list
      (Array.map
         (fun s -> (Printf.sprintf "ops_shard_%d" s.sh_id, Kv_store.operations s.sh_store))
         t.shard_ctxs)
  (* Cluster topology, observable without parsing logs: who we are, the
     routing epoch, and the owned-shard set (count + bitmask while it fits
     an int).  Migration counters ride in the metrics pairs above. *)
  @
  match t.cluster with
  | None -> []
  | Some cl ->
      let epoch, _ = Routing.snapshot cl.cl_routing in
      let owned_count = Array.fold_left (fun acc o -> if o then acc + 1 else acc) 0 cl.cl_owned in
      let owned_mask =
        if Array.length cl.cl_owned > 62 then -1
        else
          Array.to_list cl.cl_owned
          |> List.mapi (fun i o -> if o then 1 lsl i else 0)
          |> List.fold_left ( lor ) 0
      in
      [ ("cluster_node", cl.cl_node);
        ("cluster_nodes", Array.length cl.cl_addrs);
        ("routing_epoch", epoch);
        ("owned_shards", owned_count);
        ("owned_mask", owned_mask) ]

let logf t fmt = Printf.ksprintf t.cfg.log fmt

(* --------------------------- response delivery -------------------------- *)

(* Answer one request off the event loop: post the reply into the owning
   reactor, which coalesces it with everything else that arrived this cycle
   into one write.  The post comes *before* the pending-count drop so a
   draining connection never closes with this reply still outside its
   output buffer.  (Used for the un-coalesced paths: shutdown refusals and
   HANDOFF replies.) *)
let post_reply rc tag resp =
  let conn = Reactor.user rc in
  let b = Buffer.create 64 in
  Protocol.encode_response_wire b conn.c_wire ~id:tag resp;
  Reactor.post_write rc (Buffer.contents b);
  ignore (Atomic.fetch_and_add conn.c_pending (-1))

(* -------------------------------- workers ------------------------------- *)

let op_of_req (req : Protocol.request) : Kv_store.op option =
  match req with
  | Protocol.Get key -> Some (Kv_store.Get key)
  | Protocol.Set (key, v) -> Some (Kv_store.Set (key, v))
  | Protocol.Del key -> Some (Kv_store.Delete key)
  | Protocol.Update (key, delta) -> Some (Kv_store.Fetch_add (key, delta))
  (* SCAN is cross-shard and wait-free: always served inline by the
     reactor off the published snapshots, never dispatched.
     Control-plane requests (TOPO/HANDOFF/MIGIMPORT) are inline too. *)
  | Protocol.Scan _ | Protocol.Ping | Protocol.Stats | Protocol.Kill _ | Protocol.Topo
  | Protocol.Handoff _ | Protocol.Mig_import _ ->
      None

let class_of_req (req : Protocol.request) =
  match req with
  | Protocol.Get _ -> Some Metrics.C_get
  | Protocol.Set _ -> Some Metrics.C_set
  | Protocol.Del _ -> Some Metrics.C_del
  | Protocol.Update _ -> Some Metrics.C_update
  | Protocol.Scan _ -> Some Metrics.C_scan
  | Protocol.Ping | Protocol.Stats | Protocol.Kill _ | Protocol.Topo | Protocol.Handoff _
  | Protocol.Mig_import _ ->
      None

let resp_of_result (r : Kv_store.result) : Protocol.response =
  match r with
  | Kv_store.Unit -> Protocol.Ok
  | Kv_store.Value v -> Protocol.Value v
  | Kv_store.Existed b -> Protocol.Deleted b
  | Kv_store.New_value v -> Protocol.Int v

(* Execute a drained batch: one admission for the whole batch, then flush
   all responses bound for the same connection as a single write. *)
let exec_batch sh ~lpid items =
  let store_items, stray =
    List.partition (fun it -> op_of_req it.req <> None) items
  in
  (* Routed inline by the reactors; never reaches a worker. *)
  List.iter (fun it -> post_reply it.rc it.tag (Protocol.Error "not a store operation")) stray;
  if store_items <> [] then begin
    let ops = List.filter_map (fun it -> op_of_req it.req) store_items in
    let t0 = Metrics.now_us () in
    let results =
      match Kv_store.perform_batch sh.sh_store ~pid:lpid ops with
      | rs -> List.map (fun r -> resp_of_result r) rs
      | exception e ->
          let msg = Protocol.Error (Printexc.to_string e) in
          List.map (fun _ -> msg) store_items
    in
    let lat_us = Metrics.now_us () - t0 in
    let n = List.length store_items in
    let share_us = lat_us / max 1 n in
    Metrics.incr_batches sh.sh_metrics;
    (* Every item carries the same share of the batch's latency, so the
       metrics take one update per (batch, op class), made before any reply
       leaves. *)
    let answered = Array.make (Array.length Metrics.op_classes) 0 in
    List.iter2
      (fun it resp ->
        match (class_of_req it.req, resp) with
        | Some _, (Protocol.Error _ : Protocol.response) -> Metrics.incr_errors sh.sh_metrics
        | Some cls, _ ->
            let i = Metrics.class_index cls in
            answered.(i) <- answered.(i) + 1
        | None, _ -> ())
      store_items results;
    Array.iteri
      (fun i n -> Metrics.record_many sh.sh_metrics Metrics.op_classes.(i) ~n ~lat_us:share_us)
      answered;
    (* Group responses per connection so a pipelining client gets one
       coalesced write per (batch, connection) instead of one per request. *)
    let flushes : (conn Reactor.conn * Buffer.t * int ref) list ref = ref [] in
    List.iter2
      (fun it resp ->
        (* Serialize straight into the connection's coalescing buffer in its
           own wire's framing — no intermediate payload string. *)
        let wire = (Reactor.user it.rc).c_wire in
        match List.find_opt (fun (rc, _, _) -> rc == it.rc) !flushes with
        | Some (_, buf, count) ->
            Protocol.encode_response_wire buf wire ~id:it.tag resp;
            incr count
        | None ->
            let buf = Buffer.create 256 in
            Protocol.encode_response_wire buf wire ~id:it.tag resp;
            flushes := (it.rc, buf, ref 1) :: !flushes)
      store_items results;
    List.iter
      (fun (rc, buf, count) ->
        Reactor.post_write rc (Buffer.contents buf);
        ignore (Atomic.fetch_and_add (Reactor.user rc).c_pending (- !count)))
      !flushes
  end;
  (* Every item of this batch is answered: the migration fence's drain
     ([sh_inflight] = 0) may now proceed past it. *)
  ignore (Atomic.fetch_and_add sh.sh_inflight (-(List.length items)))

(* Crash: park forever holding one of this shard's admission slots.  If
   every slot is already wedged the acquire itself blocks — same observable
   stall, exactly the k-th-failure boundary the paper predicts, scoped to
   the shard. *)
let die t sh ~lpid ~gid =
  Metrics.incr_deaths sh.sh_metrics;
  logf t "worker %d (shard %d): killed (crashing at the admission boundary)" gid sh.sh_id;
  let asg = Kv_store.assignment sh.sh_store in
  let name = Kex_lock.Assignment.acquire asg ~pid:lpid in
  Sync.with_lock t.morgue_m (fun () ->
      while not t.morgue_open do
        Condition.wait t.morgue_c t.morgue_m
      done);
  (* Shutdown reaps the morgue so domains join and the process exits 0. *)
  Kex_lock.Assignment.release asg ~pid:lpid ~name

let worker_loop t sh ~lpid ~gid =
  let rec loop () =
    match Wqueue.pop_batch sh.sh_queue ~max:max_batch with
    | [] -> ()  (* ring closed: shutdown *)
    | items ->
        if Atomic.get t.kill_flags.(gid) then begin
          (* Mid-claim crash: the claimed batch is re-dispatched in order
             (the supervisor's job in a multi-process deployment); the slot
             this worker is about to take is lost for good. *)
          List.iter
            (fun it ->
              ignore (Wqueue.push_front sh.sh_queue it);
              Metrics.incr_redispatched sh.sh_metrics)
            (List.rev items);
          die t sh ~lpid ~gid
        end
        else begin
          exec_batch sh ~lpid items;
          loop ()
        end
  in
  loop ()

(* ---------------------------- fault injection --------------------------- *)

let kill_worker t w =
  if w < 0 || w >= total_workers t then
    Error (Printf.sprintf "worker %d out of range 0..%d" w (total_workers t - 1))
  else begin
    Atomic.set t.kill_flags.(w) true;
    Ok ()
  end

(* kill-worker with no target: lowest-index worker not yet marked (global
   ids start in shard 0, so an untargeted chaos schedule concentrates its
   kills in one shard — the per-shard resilience experiment). *)
let next_victim t =
  let rec go w =
    if w >= total_workers t then None
    else if Atomic.get t.kill_flags.(w) then go (w + 1)
    else Some w
  in
  go 0

(* kill-node: crash the whole node abruptly — stop accepting and sever
   every live connection with nothing drained.  Nothing inside the process
   is cleaned up (workers idle, parked corpses stay parked): to clients and
   cluster peers this node is simply gone, which is exactly the failure the
   routing layer must route around.  [stop] still works afterwards so
   harnesses join cleanly. *)
let crash t =
  if not (Atomic.exchange t.crashed true) then begin
    logf t "kexd serve: node crash (kill-node)";
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    let conns = Sync.with_lock t.conns_m (fun () -> t.conns) in
    List.iter
      (fun c -> try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns
  end

let chaos_loop t events =
  List.iter
    (fun (e : Chaos.event) ->
      let wait = e.at_s -. (Unix.gettimeofday () -. t.started_at) in
      if wait > 0. then Thread.delay wait;
      if not (Atomic.get t.stopping) then
        match e.action with
        | Chaos.Kill_node ->
            logf t "chaos: killing node at t=%.1fs" e.at_s;
            crash t
        | Chaos.Kill_worker -> (
            let target = match e.target with Some w -> Some w | None -> next_victim t in
            match target with
            | None -> logf t "chaos: no live worker left to kill"
            | Some w -> (
                match kill_worker t w with
                | Ok () -> logf t "chaos: killing worker %d at t=%.1fs" w e.at_s
                | Error msg -> logf t "chaos: %s" msg)))
    events

(* ------------------------------ connections ----------------------------- *)

let key_of_req (req : Protocol.request) =
  match req with
  | Protocol.Get key | Protocol.Set (key, _) | Protocol.Del key | Protocol.Update (key, _) ->
      key
  | Protocol.Scan _ | Protocol.Ping | Protocol.Stats | Protocol.Kill _ | Protocol.Topo
  | Protocol.Handoff _ | Protocol.Mig_import _ ->
      ""

(* --------------------------- cluster data path --------------------------- *)

let owns t shard = match t.cluster with None -> true | Some cl -> cl.cl_owned.(shard)

(* The redirect a non-owner answers: the current owner stamped with the
   current epoch, so the client adopts it iff it is news to them. *)
let moved_resp t shard =
  match t.cluster with
  | None -> Protocol.Error "not in cluster mode"
  | Some cl ->
      Metrics.record t.conn_metrics Metrics.C_moved ~lat_us:0;
      let epoch, _ = Routing.snapshot cl.cl_routing in
      Protocol.Moved (shard, epoch, Routing.owner cl.cl_routing shard)

(* The TOPO reply.  Outside cluster mode a node is a cluster of one: every
   shard maps to this node at epoch 1, so cluster-aware clients bootstrap
   against a plain single-node server unchanged. *)
let topo_resp t =
  match t.cluster with
  | Some cl -> (
      match Routing.snapshot cl.cl_routing with epoch, owners -> Protocol.Topo_reply (epoch, owners))
  | None ->
      let self = Printf.sprintf "127.0.0.1:%d" t.actual_port in
      Protocol.Topo_reply (1, List.init t.cfg.shards (fun s -> (s, self)))

(* Push a list of items at their shard's ring, against the migration fence:
   wait out an active fence, re-check ownership (the fence-holder may have
   flipped routing), and count the items in flight.  The check-then-push is
   under [sh_fence_m], so a fence set after our check cannot miss our items
   — the drain sees [sh_inflight] > 0.  The list is accepted or refused as
   a whole: one fence check, one ring lock, at most one worker wakeup. *)
type dispatched = Pushed | Not_owner | Shutting_down

let dispatch_items t sh items =
  let n = List.length items in
  Sync.with_lock sh.sh_fence_m (fun () ->
      while sh.sh_fenced do
        Condition.wait sh.sh_fence_c sh.sh_fence_m
      done;
      if not (owns t sh.sh_id) then Not_owner
      else if Wqueue.push_list sh.sh_queue items then begin
        ignore (Atomic.fetch_and_add sh.sh_inflight n);
        Pushed
      end
      else Shutting_down)

(* SCAN in cluster mode merges only the *owned* shards' snapshot scans: an
   unowned shard's store may hold a stale copy from before a migration out.
   (Cluster-wide scans are the client's scatter-gather, one node per owned
   shard set; each node answers for what it owns.) *)
let scan_local t ~start ~count =
  match t.cluster with
  | None -> Sharded.scan t.store ~start ~count
  | Some cl ->
      let all =
        Array.fold_left
          (fun acc sh ->
            if cl.cl_owned.(sh.sh_id) then
              List.rev_append (Kv_store.scan sh.sh_store ~start ~count) acc
            else acc)
          [] t.shard_ctxs
      in
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) all in
      List.filteri (fun i _ -> i < count) sorted

(* ------------------------- migration (source side) ----------------------- *)

(* Changes per MIGIMPORT frame: bounds frame size (keys+values also bound
   by max_frame) and keeps the destination's per-admission batches sane. *)
let mig_chunk = 1024

(* A tiny blocking RPC client over the binary wire — the node-to-node leg
   of a migration.  One request in flight, bounded by a socket timeout. *)
let rpc_connect ~addr ~timeout_s =
  match Routing.parse_addr addr with
  | Error msg -> Error msg
  | Ok (host, port) -> (
      match
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
           Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        fd
      with
      | fd -> Ok (fd, Protocol.Resp_decoder.create Protocol.Binary, Buffer.create 4096)
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "connect %s: %s" addr (Unix.error_message e)))

let rpc_close (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> ()

let rpc (fd, dec, out) req =
  Buffer.clear out;
  Protocol.encode_request_wire out Protocol.Binary ~id:None req;
  match
    Netio.write_all fd (Buffer.contents out);
    let buf = Bytes.create 8192 in
    let rec await () =
      match Protocol.Resp_decoder.next dec with
      | Protocol.Dec_frame (_, resp) -> Ok resp
      | Protocol.Dec_skip (_, msg) | Protocol.Dec_broken msg -> Error ("peer: " ^ msg)
      | Protocol.Dec_more -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Error "peer closed the connection"
          | n ->
              Protocol.Resp_decoder.feed_bytes dec buf ~off:0 ~len:n;
              await ())
    in
    await ()
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* Expect Ok back for one migration push. *)
let rpc_ok conn req =
  match rpc conn req with
  | Ok Protocol.Ok -> Ok ()
  | Ok (Protocol.Error msg) -> Error ("peer: " ^ msg)
  | Ok _ -> Error "peer: unexpected response to migration push"
  | Error _ as e -> e

let fence sh on =
  Sync.with_lock sh.sh_fence_m (fun () ->
      sh.sh_fenced <- on;
      if not on then Condition.broadcast sh.sh_fence_c)

(* Live handoff of [shard] to the node at [addr], run on a helper thread
   for a HANDOFF frame.  Order of operations is the whole proof:

     1. bulk-ship a [read_versioned] snapshot while the shard keeps
        serving (writes landing meanwhile will be in the delta);
     2. fence the ring and drain in-flight batches through admission —
        from here no mutation is acknowledged at the source;
     3. ship the delta (diff of a fresh snapshot against the bulk one)
        stamped with the successor epoch; the destination applies it and
        takes ownership;
     4. flip local routing + ownership, then lift the fence, so blocked
        mutators wake to a MOVED that names the new owner.

   Every mutation acknowledged before the fence is in bulk state or delta;
   none is acknowledged during it; every one after it happens at the new
   owner — zero acknowledged writes can be lost.  On any failure before
   step 4 the fence lifts and the source keeps serving the shard. *)
let handoff t ~shard ~addr =
  match t.cluster with
  | None -> Error "not in cluster mode"
  | Some cl ->
      if shard < 0 || shard >= t.cfg.shards then
        Error (Printf.sprintf "shard %d out of range 0..%d" shard (t.cfg.shards - 1))
      else if not cl.cl_owned.(shard) then
        Error (Printf.sprintf "shard %d is not owned by this node" shard)
      else if String.equal addr cl.cl_self then Error "cannot hand off a shard to ourselves"
      else begin
        let sh = t.shard_ctxs.(shard) in
        match rpc_connect ~addr ~timeout_s:10. with
        | Error _ as e -> e
        | Ok conn ->
            let finish r =
              rpc_close conn;
              r
            in
            let rec ship_bulk = function
              | [] -> Ok ()
              | chunk :: rest -> (
                  match
                    rpc_ok conn
                      (Protocol.Mig_import
                         (shard, 0, false, List.map (fun (k, v) -> (k, Some v)) chunk))
                  with
                  | Ok () -> ship_bulk rest
                  | Error _ as e -> e)
            in
            let _, bulk = Kv_store.read_versioned sh.sh_store in
            logf t "handoff: shard %d -> %s (bulk %d keys)" shard addr (List.length bulk);
            (match ship_bulk (Migration.chunks ~max:mig_chunk bulk) with
            | Error _ as e -> finish e
            | Ok () ->
                fence sh true;
                (* Drain: pushes are fenced out, so in-flight can only sink. *)
                let deadline = Unix.gettimeofday () +. 5. in
                while Atomic.get sh.sh_inflight > 0 && Unix.gettimeofday () < deadline do
                  Thread.delay 0.001
                done;
                if Atomic.get sh.sh_inflight > 0 then begin
                  fence sh false;
                  finish (Error "drain timed out (shard wedged?); handoff aborted")
                end
                else begin
                  let _, quiesced = Kv_store.read_versioned sh.sh_store in
                  let delta = Migration.diff ~before:bulk ~after:quiesced in
                  let next_epoch = Routing.epoch cl.cl_routing + 1 in
                  match rpc_ok conn (Protocol.Mig_import (shard, next_epoch, true, delta)) with
                  | Error msg ->
                      fence sh false;
                      finish (Error msg)
                  | Ok () ->
                      (* The destination owns the shard at [next_epoch];
                         adopt that fact, drop ownership, lift the fence. *)
                      ignore (Routing.observe cl.cl_routing ~shard ~epoch:next_epoch ~addr);
                      cl.cl_owned.(shard) <- false;
                      Metrics.incr_migrations_out t.conn_metrics;
                      fence sh false;
                      logf t "handoff: shard %d now owned by %s at epoch %d (delta %d changes)"
                        shard addr next_epoch (List.length delta);
                      finish (Ok ())
                end)
      end

(* Migration import (destination side): apply the changes to our copy of the
   shard, and on the final chunk take ownership at the sender's epoch.
   Borrowing the shard's pid 0 is safe exactly because the shard is unowned:
   no client mutation is dispatched to it, and its workers idle on an empty
   ring without touching admission. *)
let mig_import t ~shard ~epoch ~final changes =
  match t.cluster with
  | None -> Error "not in cluster mode"
  | Some cl ->
      if shard < 0 || shard >= t.cfg.shards then
        Error (Printf.sprintf "shard %d out of range 0..%d" shard (t.cfg.shards - 1))
      else if cl.cl_owned.(shard) then
        Error (Printf.sprintf "shard %d is already owned by this node" shard)
      else begin
        let sh = t.shard_ctxs.(shard) in
        Kv_store.apply_changes sh.sh_store ~pid:0 changes;
        if final then begin
          if not (Routing.observe cl.cl_routing ~shard ~epoch ~addr:cl.cl_self) then
            Error
              (Printf.sprintf "stale migration epoch %d (routing is at %d)" epoch
                 (Routing.epoch cl.cl_routing))
          else begin
            cl.cl_owned.(shard) <- true;
            Metrics.incr_migrations_in t.conn_metrics;
            logf t "migration: imported shard %d, owned at epoch %d" shard epoch;
            Ok ()
          end
        end
        else Ok ()
      end

(* Forced takeover of an unowned shard at the successor epoch — the
   failover harness's reassignment after [kill-node], equivalent to
   receiving a final, empty MIGIMPORT.  The dead owner's data died with it
   (the cluster is shared-nothing, no replication): the shard restarts
   from whatever copy this node holds, trading durability for
   availability.  Routing-wise it is indistinguishable from a migration,
   so clients converge through the same TOPO/MOVED machinery. *)
let adopt t ~shard =
  match t.cluster with
  | None -> Error "not in cluster mode"
  | Some cl -> mig_import t ~shard ~epoch:(Routing.epoch cl.cl_routing + 1) ~final:true []

(* SCAN result sizes are clamped so one request can't build a response
   anywhere near [max_frame]. *)
let max_scan = 4096

(* Inline reply from the reactor, echoing the request id when the request
   carried one.  Framed into [out] in the connection's own wire and
   appended once per drained socket read, so a pipelined window of inline
   GETs costs one write — the reactor's counterpart of the workers'
   coalesced flushes. *)
let respond_now conn out tag resp = Protocol.encode_response_wire out conn.c_wire ~id:tag resp

(* What one socket read decoded that is answered only once the whole read
   is decoded: its mutations, one list per shard, which [flush_pending]
   dispatches, and its wait-free GETs (key, tag), which [resolve_gets]
   answers as one batch — all newest first. *)
type pending = { muts : item list array; mutable gets : (string * int option) list }

let new_pending t = { muts = Array.make (Array.length t.shard_ctxs) []; gets = [] }

(* The wait-free read plane, one batch per socket read: answer the queued
   GETs into [out], in decode order, with no ring, no worker and no
   admission slot.  [Sharded.read_many] reads each shard the batch touches
   off one published snapshot and walks all of that shard's keys down the
   tree in lockstep.  Ownership is checked per shard right before that
   snapshot read, and an unowned key answers MOVED in its own position.
   One clock pair and one metrics update cover the batch; each GET records
   the batch's per-GET share of the lookup time. *)
let resolve_gets t conn out p =
  if p.gets <> [] then begin
    let gets = Array.of_list (List.rev p.gets) in
    p.gets <- [];
    let t0 = Metrics.now_us () in
    let found = Sharded.read_many ~owned:(owns t) t.store (Array.map fst gets) in
    let lat_us = Metrics.now_us () - t0 in
    let served = Array.fold_left (fun n r -> if Result.is_ok r then n + 1 else n) 0 found in
    if served > 0 then begin
      Metrics.record_many t.conn_metrics Metrics.C_get ~n:served ~lat_us:(lat_us / served);
      Metrics.incr_read_batch t.conn_metrics ~gets:served
    end;
    Array.iteri
      (fun i (_, tag) ->
        respond_now conn out tag
          (match found.(i) with Ok v -> Protocol.Value v | Error shard -> moved_resp t shard))
      gets
  end

(* Dispatch each shard's pending mutations, in arrival order, as one batch.
   A refused batch is answered right here into [out] (after the GETs
   decoded before it), leaving the connection's pending count — the plane
   appends [out] after this, so the refusals and the count drops land in
   the same append. *)
let flush_pending t conn out p =
  Array.iteri
    (fun s newest_first ->
      if newest_first <> [] then begin
        p.muts.(s) <- [];
        let items = List.rev newest_first in
        let refuse resp =
          List.iter
            (fun it ->
              ignore (Atomic.fetch_and_add conn.c_pending (-1));
              resolve_gets t conn out p;
              respond_now conn out it.tag (resp ()))
            items
        in
        match dispatch_items t t.shard_ctxs.(s) items with
        | Pushed -> ()
        | Not_owner -> refuse (fun () -> moved_resp t s)
        | Shutting_down ->
            refuse (fun () ->
                Metrics.incr_errors t.conn_metrics;
                Protocol.Error "server shutting down")
      end)
    p.muts

let handle_request t rc out pending tag (req : Protocol.request) =
  let conn = Reactor.user rc in
  (* A request that is not a store operation is answered right here; the
     GETs queued before it answer first, so inline replies keep decode
     order (and STATS counts them). *)
  if op_of_req req = None then resolve_gets t conn out pending;
  match req with
  | Protocol.Ping -> respond_now conn out tag Protocol.Pong
  | Protocol.Stats -> respond_now conn out tag (Protocol.Stats_reply (stats_pairs t))
  | Protocol.Kill w -> (
      match kill_worker t w with
      | Ok () -> respond_now conn out tag Protocol.Ok
      | Error msg ->
          Metrics.incr_errors t.conn_metrics;
          respond_now conn out tag (Protocol.Error msg))
  | Protocol.Topo -> respond_now conn out tag (topo_resp t)
  | Protocol.Handoff (shard, addr) ->
      (* A handoff blocks for its whole fence+drain window — far too long
         for an event loop.  Run it on a helper thread and post the reply
         back through the reactor mailbox; [c_pending] keeps the
         connection from draining shut underneath it. *)
      Atomic.incr conn.c_pending;
      ignore
        (Thread.create
           (fun () ->
             post_reply rc tag
               (match handoff t ~shard ~addr with
               | Ok () -> Protocol.Ok
               | Error msg ->
                   Metrics.incr_errors t.conn_metrics;
                   Protocol.Error msg))
           ())
  | Protocol.Mig_import (shard, epoch, final, changes) -> (
      match mig_import t ~shard ~epoch ~final changes with
      | Ok () -> respond_now conn out tag Protocol.Ok
      | Error msg ->
          Metrics.incr_errors t.conn_metrics;
          respond_now conn out tag (Protocol.Error msg))
  | Protocol.Get key ->
      (* The wait-free read plane: queued, and answered with the read's
         other GETs by [resolve_gets] off the shards' published snapshots.
         Publication happens before any mutation is acknowledged, so an
         acknowledged SET is always visible; and because no slot is needed,
         this keeps answering when all k of the shard's workers are dead.
         In cluster mode an unowned shard redirects instead: the local
         snapshot stops being authoritative the moment routing flips. *)
      pending.gets <- (key, tag) :: pending.gets
  | Protocol.Scan (start, count) ->
      (* Range reads ride the same wait-free plane: every shard's slice
         comes off its published snapshot, so a SCAN answers consistently
         even when a whole shard's worker pool is dead.  Cluster mode
         answers for the shards this node owns. *)
      let t0 = Metrics.now_us () in
      let pairs = scan_local t ~start ~count:(min count max_scan) in
      Metrics.record t.conn_metrics Metrics.C_scan ~lat_us:(Metrics.now_us () - t0);
      Metrics.incr_inline_reads t.conn_metrics;
      respond_now conn out tag (Protocol.Range pairs)
  | req ->
      (* A mutation: queue it for this read's batched dispatch and keep
         going; a worker posts the response (coalesced with its
         batch-mates).  Untagged responses stay in order because the v1
         contract keeps one request in flight. *)
      let shard = shard_of_key t (key_of_req req) in
      Atomic.incr conn.c_pending;
      pending.muts.(shard) <- { req; rc; tag } :: pending.muts.(shard)

(* Decode and handle every complete frame of the connection's input, then
   dispatch the read's mutations and resolve its GETs; the replies answered
   on the plane land in [out].  [false] means the stream is garbage and the
   connection must close. *)
let serve_read t rc out pending =
  let conn = Reactor.user rc in
  let rec drain () =
    match Protocol.Req_decoder.next conn.c_dec with
    | Protocol.Dec_more -> true
    | Protocol.Dec_frame (tag, req) ->
        handle_request t rc out pending tag req;
        drain ()
    | Protocol.Dec_skip (tag, msg) ->
        (* Malformed frame with intact framing: answer ERR and keep the
           stream — the decoder already consumed the bad frame's bytes. *)
        Metrics.incr_errors t.conn_metrics;
        resolve_gets t conn out pending;
        respond_now conn out tag (Protocol.Error ("parse: " ^ msg));
        drain ()
    | Protocol.Dec_broken msg ->
        (* The byte stream itself is garbage: say why, then hang up.  The
           ERR reply (flushed by the plane) is the clean-close contract — a
           pipelining client sees a reply, not a silent RST. *)
        Metrics.incr_errors t.conn_metrics;
        resolve_gets t conn out pending;
        respond_now conn out None (Protocol.Error ("protocol: " ^ msg));
        logf t "connection: closing garbage stream (%s)" msg;
        false
  in
  let keep = drain () in
  (* Mutations first, so the workers start on them while the loop walks
     the read's GETs. *)
  flush_pending t conn out pending;
  resolve_gets t conn out pending;
  keep

(* The connection plane's handlers.  All three run on the owning reactor's
   loop domain; the only cross-thread traffic is the mailbox they answer
   to.  [scratch] collects every inline reply produced while draining one
   socket read (pipelined GETs, MOVED, parse errors...) and lands in the
   connection's output buffer as one append.  The read's mutations and
   GETs collect in [pending]; the mutations are dispatched, one batch per
   shard, and the GETs resolved as one batch, before that append. *)
let reactor_handlers t =
  let scratch = Buffer.create 4096 in
  let pending = new_pending t in
  { Reactor.on_data =
      (fun rc bytes len ->
        let conn = Reactor.user rc in
        let dec = conn.c_dec in
        Protocol.Req_decoder.feed_bytes dec bytes ~off:0 ~len;
        (* The first bytes decide the wire; workers read [c_wire] only for
           requests dispatched after this point, so the plain write is
           published by the ring's mutex. *)
        (match Protocol.Req_decoder.wire dec with
        | Some w -> conn.c_wire <- w
        | None -> ());
        Buffer.clear scratch;
        let keep = serve_read t rc scratch pending in
        if Buffer.length scratch > 0 then Reactor.append_buffer rc scratch;
        keep);
    on_drained = (fun rc -> Atomic.get (Reactor.user rc).c_pending = 0);
    on_detach =
      (fun rc ->
        let conn = Reactor.user rc in
        Sync.with_lock t.conns_m (fun () ->
            t.conns <- List.filter (fun c -> c != conn) t.conns)) }

let accept_loop t =
  let next_reactor = ref 0 in
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Metrics.incr_connections t.conn_metrics;
        let conn =
          { c_fd = fd;
            c_pending = Atomic.make 0;
            c_dec = Protocol.Req_decoder.create ();
            c_wire = Protocol.Text }
        in
        (* Register first, then hand the socket over: [crash] must be able
           to sever this connection the instant the reactor owns it. *)
        Sync.with_lock t.conns_m (fun () -> t.conns <- conn :: t.conns);
        Reactor.add t.reactors.(!next_reactor) fd conn;
        next_reactor := (!next_reactor + 1) mod Array.length t.reactors;
        loop ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> loop ()
    | exception Unix.Unix_error _ ->
        (* Listener closed under us — the shutdown path. *)
        ()
  in
  loop ()

(* ------------------------------- lifecycle ------------------------------ *)

(* Join a cluster: record who we are and bootstrap routing/ownership with
   the same deterministic round-robin every node (and cluster-aware client)
   computes from the shared node list — no coordination needed to agree on
   epoch 1.  Call right after [start], before traffic (tests start on
   ephemeral ports, so addresses are only known post-bind). *)
let enable_cluster t ~node ~addrs =
  let n = List.length addrs in
  if n = 0 then invalid_arg "Server.enable_cluster: no node addresses";
  if node < 0 || node >= n then invalid_arg "Server.enable_cluster: node index out of range";
  let routing = Routing.initial ~addrs ~shards:t.cfg.shards in
  let addr_arr = Array.of_list addrs in
  t.cluster <-
    Some
      { cl_node = node;
        cl_addrs = addr_arr;
        cl_self = addr_arr.(node);
        cl_routing = routing;
        cl_owned = Array.init t.cfg.shards (fun s -> s mod n = node) };
  logf t "cluster: node %d/%d at %s, owning %d of %d shards" node n addr_arr.(node)
    ((t.cfg.shards + n - 1 - node) / n)
    t.cfg.shards

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be positive";
  if cfg.shards < 1 then invalid_arg "Server.start: shards must be positive";
  if cfg.k < 1 || cfg.k > cfg.workers then
    invalid_arg "Server.start: need 1 <= k <= workers (per shard)";
  if cfg.reactors < 1 then invalid_arg "Server.start: reactors must be positive";
  (* A worker death mid-write must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port));
  Unix.listen listen_fd 128;
  let actual_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let store =
    Sharded.create ~algo:cfg.algo ~shards:cfg.shards ~n:cfg.workers ~k:cfg.k ()
  in
  let shard_ctxs =
    Array.init cfg.shards (fun i ->
        { sh_id = i;
          sh_store = Sharded.shard store i;
          sh_queue = Wqueue.create ();
          sh_metrics = Metrics.create ();
          sh_fence_m = Mutex.create ();
          sh_fence_c = Condition.create ();
          sh_fenced = false;
          sh_inflight = Atomic.make 0 })
  in
  let t =
    { cfg;
      store;
      shard_ctxs;
      conn_metrics = Metrics.create ();
      kill_flags = Array.init (cfg.shards * cfg.workers) (fun _ -> Atomic.make false);
      morgue_m = Mutex.create ();
      morgue_c = Condition.create ();
      morgue_open = false;
      listen_fd;
      actual_port;
      stopping = Atomic.make false;
      worker_domains = [];
      listener = None;
      chaos_thread = None;
      conns_m = Mutex.create ();
      conns = [];
      reactors = [||];
      started_at = Unix.gettimeofday ();
      cluster = None;
      crashed = Atomic.make false }
  in
  Option.iter (fun (node, addrs) -> enable_cluster t ~node ~addrs) cfg.cluster;
  t.worker_domains <-
    List.concat
      (List.init cfg.shards (fun s ->
           List.init cfg.workers (fun i ->
               let gid = (s * cfg.workers) + i in
               Domain.spawn (fun () -> worker_loop t t.shard_ctxs.(s) ~lpid:i ~gid))));
  t.reactors <-
    Array.init cfg.reactors (fun i ->
        Reactor.create ~out_hwm:cfg.out_hwm ~slow_drain_s:cfg.slow_drain_s ~log:cfg.log ~id:i
          (reactor_handlers t));
  Array.iter Reactor.start t.reactors;
  t.listener <- Some (Thread.create (fun () -> accept_loop t) ());
  if cfg.chaos <> [] then t.chaos_thread <- Some (Thread.create (fun () -> chaos_loop t cfg.chaos) ());
  logf t
    "kexd serve: listening on 127.0.0.1:%d (shards=%d workers=%d/shard k=%d reactors=%d algo in \
     force)"
    actual_port cfg.shards cfg.workers cfg.k cfg.reactors;
  t

let stop ?(drain_timeout_s = 5.) t =
  Atomic.set t.stopping true;
  (* 1. Stop accepting.  shutdown() before close(): on Linux, closing a
     socket does not wake a thread blocked in accept(), shutting it down
     does (the accept fails with EINVAL/ECONNABORTED). *)
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* 2. Let in-flight work drain (bounded: a stalled shard never drains). *)
  let queued () = Array.fold_left (fun acc s -> acc + Wqueue.length s.sh_queue) 0 t.shard_ctxs in
  let deadline = Unix.gettimeofday () +. drain_timeout_s in
  while queued () > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  (* 3. Reap the morgue: parked "dead" workers release their slots and
     exit, unwedging any live worker stuck at admission. *)
  Sync.with_lock t.morgue_m (fun () ->
      t.morgue_open <- true;
      Condition.broadcast t.morgue_c);
  (* 4. Close every ring; refuse whatever never got dispatched. *)
  Array.iter
    (fun s ->
      let leftovers = Wqueue.close s.sh_queue in
      ignore (Atomic.fetch_and_add s.sh_inflight (-(List.length leftovers)));
      List.iter
        (fun it -> post_reply it.rc it.tag (Protocol.Error "server shutting down"))
        leftovers)
    t.shard_ctxs;
  (* 5. Join workers, then retire the connection plane.  Workers go first:
     their final flushes post into reactor mailboxes, and the reactors'
     graceful stop (drain each connection's output, bounded, then close
     it) needs those posts already queued. *)
  List.iter Domain.join t.worker_domains;
  Array.iter (fun r -> Reactor.stop ~grace_s:drain_timeout_s r) t.reactors;
  Option.iter Thread.join t.listener;
  Option.iter Thread.join t.chaos_thread;
  let m = all_metrics t in
  logf t "kexd serve: stopped (%d ops served, %d worker deaths)"
    (List.fold_left (fun acc x -> acc + Metrics.served x) 0 m)
    (List.fold_left (fun acc x -> acc + Metrics.deaths x) 0 m)

let run ?duration_s cfg =
  let t = start cfg in
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle request_stop) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_stop) in
  let expired () =
    match duration_s with
    | None -> false
    | Some d -> Unix.gettimeofday () -. t.started_at >= d
  in
  while not (Atomic.get stop_requested || expired ()) do
    Thread.delay 0.05
  done;
  stop t;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term
