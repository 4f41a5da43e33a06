(* The kexd network server: a TCP listener plus worker domains serving a
   sharded (k-1)-resilient KV store.

   Data path: the store is split into S shards, each an independent
   Kv_store behind its *own* Kex_lock/Assignment admission wrapper, with a
   per-shard MPMC submission ring.  The connection plane owns the sockets:
   R reactor domains, each a poll(2) event loop over the connections it
   accepted.  Per socket read, the plane decodes every complete frame,
   answers control requests and SCANs inline, queues the GETs, and collects
   the mutations in per-shard pending lists in arrival order.  After the
   read is decoded each non-empty list is dispatched as one batch, under
   one fence check.  Each reactor is one more process of every shard's
   wrapper (N = workers + reactors).  When the list's shard is quiet —
   owned, unfenced, its ring empty, no kill pending — the reactor runs the
   list itself: a no-wait admission per [Shard.max_batch] items, apply, and
   the replies framed straight into the read's output, with no ring push,
   no worker wakeup and no mailbox post.  If admission refuses (every free
   slot is held, by a busy or a dead process) the rest of the list goes to
   the ring, so a reactor never waits on a slot.  Otherwise the list enters
   the ring under one lock with at most one worker wakeup.  Then the GETs
   are resolved as one batch off the shards' committed heads: one atomic
   head load per shard, with the lookups walked down the tree in lockstep.
   The item carries the connection and the request id, so a client may hold
   a whole window of requests in flight per connection.  An untagged v1
   request is dispatched the same way; its reply keeps decode order only
   while the client keeps one request in flight, which is the v1 contract.

   A shard migrated in is installed on a reactor too, by one no-wait
   admission, so no reactor ever waits on a slot (see [mig_import]).

   Worker domains have shard affinity: each drains *its* shard's ring in
   batches, enters the shard store through one (N,k)-assignment admission
   and one commit per batch (amortizing the wrapper over the batch),
   executes, and posts all responses bound for one connection to its
   reactor as one coalesced write.  Because the ring wakes one worker per
   dispatched batch and recruits another only for a backlog, the workers
   contending for the shard's k slots track the load, not the number of
   requests in a read.  Per-shard contention therefore stays <= k while
   aggregate mutator parallelism is S*k — the paper's scaling story — and
   a worker death costs one slot in one shard only.  A shard's workers
   start on first use: its first ring push, or the first KILL aimed at one
   of them.  Until then they have taken no step, which the asynchronous
   model allows, and a healthy server runs on its reactors alone, so idle
   domains do not join every stop-the-world minor collection.

   Fault injection: a "killed" worker (chaos schedule or the KILL admin
   command) crashes at its next admission boundary — it returns its
   claimed batch to the front of its shard's ring, then acquires an
   admission slot in its shard and parks forever holding it.  To the
   protocol this is exactly the paper's failure model: an undetectably
   crashed process inside the wrapper, costing one of that shard's k
   slots.  (OCaml domains cannot be hard-killed, so the crash is
   cooperative; parked workers are only reaped at shutdown so tests and CI
   exit cleanly.)  Until the victim parks, its kill is pending and its
   shard keeps to the ring, so the kill lands at the victim's next
   admission boundary and every mutation dispatched after it sees the slot
   it burns.  Killing up to k-1 workers of one shard costs slots but zero
   client-visible failures anywhere; killing k workers of a shard wedges
   that shard — and only that shard.

   A shard's state machine — its store, ownership, the route decision, the
   fence and the handoff claim, in-flight accounting, kills, the worker
   loop and its lazy start — is [Shard], which does no I/O.  The server's
   [item Shard.t array] is its one table of shards: the GET batch read,
   SCAN's merge and the STATS sums read each shard's store and ownership
   from it, and keys map to it by [Routing.key_shard].  This file keeps
   decode, reply framing, the GET plane's batching, cluster RPC and
   STATS. *)

module Kex_lock = Kex_runtime.Kex_lock
module Kv_store = Kex_resilient.Kv_store
module Routing = Kex_cluster.Routing
module Migration = Kex_cluster.Migration

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

(* A connection's server-side state, the user value of its reactor
   connection.  The socket and this record belong to one reactor's event
   loop, and only that loop reads or writes them; a worker "writes" by
   posting into the loop's lock-free mailbox.  [c_wire] is the framing the
   connection speaks, sniffed from its first byte.  [c_imports] holds the
   image staged so far for each shard this connection is importing (see
   [mig_import]). *)
type conn = {
  c_dec : Protocol.Req_decoder.t;
  mutable c_wire : Protocol.wire;
  mutable c_imports : (int * Kv_store.image) list;
}

(* A dispatched mutation: its store op and op class, the reactor
   connection to answer on, the wire to answer in and the id to echo
   ([None] for an untagged v1 request).  The loop raised the connection's
   owed count for it, and the reply posted off the loop carries it back. *)
type item = {
  op : Kv_store.op;
  cls : Metrics.op_class;
  rc : conn Reactor.conn;
  wire : Protocol.wire;
  tag : int option;
}

(* Cluster-mode state: which node we are, everyone's address and the
   epoch-versioned routing table.  Every node allocates all [shards] global
   shards (stores and rings) and serves only the ones it owns ([Shard.owned]);
   an unowned shard's ring stays empty, so its workers never start, and its
   store is the landing zone for a future migration in. *)
type cluster = { cl_node : int; cl_addrs : string array; cl_self : string; cl_routing : Routing.t }

type t = {
  cfg : config;
  pool : Shard.pool;
  shards : item Shard.t array;  (* the one table of shards: each with its store and metrics *)
  conn_metrics : Metrics.t;  (* connection-plane counters *)
  listen_fd : Unix.file_descr;
  (* Set once, by [stop] or [crash], before the listener is shut down and
     closed: the fd is closed exactly once, and the accept loop leaves only
     when this is set. *)
  listener_closed : bool Atomic.t;
  actual_port : int;
  mutable listener : Thread.t option;
  mutable chaos_thread : Thread.t option;
  mutable reactors : conn Reactor.t array;
  started_at : float;
  mutable cluster : cluster option;
  crashed : bool Atomic.t;  (* kill-node chaos fired: abrupt teardown *)
}

let port t = t.actual_port
let total_workers t = t.cfg.shards * t.cfg.workers
let shard_of_key t key = Routing.key_shard ~shards:t.cfg.shards key
let owns t shard = Shard.owned t.shards.(shard)

let all_metrics t = t.conn_metrics :: Array.to_list (Array.map Shard.metrics t.shards)

(* Summed over the table's stores: exact under any interleaving, because
   each summand is a per-shard linearization counter.  [keys] counts the
   owned shards only, since an unowned shard's copy may be stale. *)
let stats_pairs t =
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards in
  let store_sum f = sum (fun sh -> f (Shard.store sh)) in
  Metrics.pairs_merged (all_metrics t)
  @ [ ("workers", total_workers t);
      ("workers_per_shard", t.cfg.workers);
      ("worker_domains", Shard.spawned t.pool);
      ("shards", t.cfg.shards);
      ("k", t.cfg.k);
      ("keys", sum (fun sh -> if Shard.owned sh then Kv_store.size (Shard.store sh) else 0));
      ("ops_linearized", store_sum Kv_store.operations);
      ("apply_calls", store_sum Kv_store.apply_calls);
      ("open_conns", Array.fold_left (fun a r -> a + Reactor.live r) 0 t.reactors);
      ("uptime_ms", int_of_float ((Unix.gettimeofday () -. t.started_at) *. 1000.)) ]
  (* Words allocated in the minor heaps and promoted out of them, cumulative
     for the process: [Gc.quick_stat] adds every domain's counts as of the
     last minor collection (which stops every domain) to this domain's
     since.  Per [served] request they read as the allocation a request
     costs. *)
  @ (let gc = Gc.quick_stat () in
     [ ("gc_minor_words", int_of_float gc.minor_words);
       ("gc_promoted_words", int_of_float gc.promoted_words) ])
  @ [ ("ring_pushes", Array.fold_left (fun a s -> a + Wqueue.pushes (Shard.ring s)) 0 t.shards);
      ("ring_wakeups", Array.fold_left (fun a s -> a + Wqueue.wakeups (Shard.ring s)) 0 t.shards) ]
  @ [ ("reactors", Array.length t.reactors);
      ("reactor_wakeups", Array.fold_left (fun a r -> a + Reactor.wakeups r) 0 t.reactors);
      ("reactor_posts", Array.fold_left (fun a r -> a + Reactor.posts r) 0 t.reactors) ]
  @ List.init t.cfg.shards (fun s ->
        (Printf.sprintf "ops_shard_%d" s, Kv_store.operations (Shard.store t.shards.(s))))
  (* Cluster topology, observable without parsing logs: who we are, the
     routing epoch, and the owned-shard set (count + bitmask while it fits
     an int).  Migration counters ride in the metrics pairs above. *)
  @
  match t.cluster with
  | None -> []
  | Some cl ->
      let epoch, _ = Routing.snapshot cl.cl_routing in
      let owned = List.init t.cfg.shards (owns t) in
      let owned_count = List.length (List.filter Fun.id owned) in
      let owned_mask =
        if t.cfg.shards > 62 then -1
        else List.fold_left ( lor ) 0 (List.mapi (fun i o -> if o then 1 lsl i else 0) owned)
      in
      [ ("cluster_node", cl.cl_node);
        ("cluster_nodes", Array.length cl.cl_addrs);
        ("routing_epoch", epoch);
        ("owned_shards", owned_count);
        ("owned_mask", owned_mask) ]

let logf t fmt = Printf.ksprintf t.cfg.log fmt

(* --------------------------- response delivery -------------------------- *)

(* Answer one owed request off the event loop: post the reply into the
   owning reactor, which coalesces it with everything else that arrived
   this cycle into one write and takes it off the connection's owed count
   as it appends it.  (Used for the un-coalesced paths: shutdown refusals
   and HANDOFF replies.) *)
let post_reply rc wire tag resp =
  let b = Buffer.create 64 in
  Protocol.encode_response_wire b wire ~id:tag resp;
  Reactor.post_write ~replies:1 rc (Buffer.contents b)

(* -------------------------------- workers ------------------------------- *)

let resp_of_result (r : Kv_store.result) : Protocol.response =
  match r with
  | Kv_store.Unit -> Protocol.Ok
  | Kv_store.Value v -> Protocol.Value v
  | Kv_store.Existed b -> Protocol.Deleted b
  | Kv_store.New_value v -> Protocol.Int v

(* Apply one batch under one admission, record it in the shard's
   [metrics], and frame each reply into the buffer [out] picks for its
   connection.  Shared by the workers (blocking admission, one buffer per
   connection, posted afterwards) and the reactors' inline path (no-wait
   admission, replies straight into the read's output).  [admit ops] runs
   the ops through the shard's wrapper; [false] means it refused, and then
   nothing was applied, recorded or framed.  The metrics are updated
   before the caller lets a reply leave, one update per (batch, op class),
   every item carrying the same share of the batch's latency. *)
let exec_batch metrics ~admit ~out items =
  let t0 = Metrics.now_us () in
  let resps =
    match admit (List.map (fun it -> it.op) items) with
    | Some rs -> Some (List.map resp_of_result rs)
    | None -> None
    | exception e ->
        let msg = Protocol.Error (Printexc.to_string e) in
        Some (List.map (fun _ -> msg) items)
  in
  match resps with
  | None -> false
  | Some resps ->
      let share_us = (Metrics.now_us () - t0) / max 1 (List.length items) in
      Metrics.incr_batches metrics;
      let answered = Array.make (Array.length Metrics.op_classes) 0 in
      List.iter2
        (fun it resp ->
          (match (resp : Protocol.response) with
          | Protocol.Error _ -> Metrics.incr_errors metrics
          | _ ->
              let i = Metrics.class_index it.cls in
              answered.(i) <- answered.(i) + 1);
          Protocol.encode_response_wire (out it.rc) it.wire ~id:it.tag resp)
        items resps;
      Array.iteri
        (fun i n -> Metrics.record_many metrics Metrics.op_classes.(i) ~n ~lat_us:share_us)
        answered;
      true

(* A worker's batch, [Shard]'s [apply] callback: one blocking admission,
   then the responses bound for one connection posted to its reactor as one
   coalesced write, so a pipelining client gets one write per (batch,
   connection). *)
let work_batch store metrics ~lpid items =
  let flushes : (conn Reactor.conn * Buffer.t * int ref) list ref = ref [] in
  let out rc =
    match List.find_opt (fun (rc', _, _) -> rc' == rc) !flushes with
    | Some (_, buf, count) ->
        incr count;
        buf
    | None ->
        let buf = Buffer.create 256 in
        flushes := (rc, buf, ref 1) :: !flushes;
        buf
  in
  ignore
    (exec_batch metrics ~out items ~admit:(fun ops ->
         Some (Kv_store.perform_batch store ~pid:lpid ops)));
  List.iter
    (fun (rc, buf, count) -> Reactor.post_write ~replies:!count rc (Buffer.contents buf))
    !flushes

(* ---------------------------- fault injection --------------------------- *)

let kill_worker t w =
  if w < 0 || w >= total_workers t then
    Error (Printf.sprintf "worker %d out of range 0..%d" w (total_workers t - 1))
  else begin
    Shard.kill t.shards.(w / t.cfg.workers) ~lpid:(w mod t.cfg.workers);
    Ok ()
  end

(* kill-worker with no target: lowest-index worker not yet marked (global
   ids start in shard 0, so an untargeted chaos schedule concentrates its
   kills in one shard — the per-shard resilience experiment). *)
let next_victim t =
  let rec go w =
    if w >= total_workers t then None
    else if Shard.killed t.shards.(w / t.cfg.workers) ~lpid:(w mod t.cfg.workers) then go (w + 1)
    else Some w
  in
  go 0

(* Stop accepting, once: [stop] and [crash] both come here, and only the
   first shuts the listener down and closes its fd, so a second close
   cannot hit a descriptor that reused the number.  shutdown() before
   close(): on Linux, closing a socket does not wake a thread blocked in
   accept(), shutting it down does. *)
let close_listener t =
  if not (Atomic.exchange t.listener_closed true) then begin
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

(* kill-node: crash the whole node abruptly — stop accepting, and have
   every reactor sever its connections with nothing drained, those the
   acceptor hands it later included.  Nothing inside the process is
   cleaned up (workers idle, parked corpses stay parked): to clients and
   cluster peers this node is simply gone, which is exactly the failure the
   routing layer must route around.  [stop] still works afterwards so
   harnesses join cleanly. *)
let crash t =
  if not (Atomic.exchange t.crashed true) then begin
    logf t "kexd serve: node crash (kill-node)";
    close_listener t;
    Array.iter Reactor.sever t.reactors
  end

let chaos_loop t events =
  List.iter
    (fun (e : Chaos.event) ->
      let wait = e.at_s -. (Unix.gettimeofday () -. t.started_at) in
      if wait > 0. then Thread.delay wait;
      if not (Shard.stopping t.pool) then
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

(* --------------------------- cluster data path --------------------------- *)

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

(* ------------------------- migration (source side) ----------------------- *)

(* Changes per MIGIMPORT frame: bounds frame size (keys+values also bound
   by max_frame) and keeps the destination's per-admission batches sane. *)
let mig_chunk = 1024

(* Expect Ok back for one migration push. *)
let rpc_ok conn req =
  match Netio.call conn req with
  | Ok Protocol.Ok -> Ok ()
  | Ok (Protocol.Error msg) -> Error ("peer: " ^ msg)
  | Ok _ -> Error "peer: unexpected response to migration push"
  | Error msg -> Error ("peer: " ^ msg)

(* Live handoff of [shard] to the node at [addr], run on a helper thread
   for a HANDOFF frame.  Order of operations is the whole proof:

     0. claim the shard ([Shard.claim_handoff]): under the fence lock, check
        that this node owns it and that no other handoff holds it — a
        second HANDOFF answers ERR instead of shipping the shard again;
     1. bulk-ship a [read_versioned] snapshot while the shard keeps
        serving (writes landing meanwhile will be in the delta);
     2. fence the shard and drain in-flight batches through admission —
        from here no mutation is acknowledged at the source;
     3. ship the delta (diff of a fresh snapshot against the bulk one)
        stamped with the successor epoch; the destination installs it and
        takes ownership;
     4. adopt the new routing, then drop ownership, lift the fence and end
        the claim in one critical section, so blocked mutators wake to a
        MOVED that names the new owner.

   Every mutation acknowledged before the fence is in bulk state or delta;
   none is acknowledged during it; every one after it happens at the new
   owner — zero acknowledged writes can be lost.  On any failure before
   step 4 the fence lifts, the claim ends and the source keeps serving the
   shard. *)
let ship_shard t cl ~shard ~addr =
  match Netio.connect ~wire:Protocol.Binary ~timeout_s:10. addr with
  | Error _ as e -> e
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> Netio.close conn)
        (fun () ->
          let store = Shard.store t.shards.(shard) in
          let rec ship_bulk = function
            | [] -> Ok ()
            | chunk :: rest -> (
                let changes = List.map (fun (k, v) -> (k, Some v)) chunk in
                match rpc_ok conn (Protocol.Mig_import (shard, 0, false, changes)) with
                | Ok () -> ship_bulk rest
                | Error _ as e -> e)
          in
          let _, bulk = Kv_store.read_versioned store in
          logf t "handoff: shard %d -> %s (bulk %d keys)" shard addr (List.length bulk);
          match ship_bulk (Migration.chunks ~max:mig_chunk bulk) with
          | Error _ as e -> e
          | Ok () ->
              if not (Shard.fence t.shards.(shard) ~timeout_s:5.) then
                Error "drain timed out (shard wedged?); handoff aborted"
              else begin
                let _, quiesced = Kv_store.read_versioned store in
                let delta = Migration.diff ~before:bulk ~after:quiesced in
                let next_epoch = Routing.epoch cl.cl_routing + 1 in
                match rpc_ok conn (Protocol.Mig_import (shard, next_epoch, true, delta)) with
                | Error _ as e -> e
                | Ok () -> Ok (next_epoch, List.length delta)
              end)

let handoff t ~shard ~addr =
  match t.cluster with
  | None -> Error "not in cluster mode"
  | Some cl -> (
      if shard < 0 || shard >= t.cfg.shards then
        Error (Printf.sprintf "shard %d out of range 0..%d" shard (t.cfg.shards - 1))
      else if String.equal addr cl.cl_self then Error "cannot hand off a shard to ourselves"
      else
        let sh = t.shards.(shard) in
        match Shard.claim_handoff sh with
        | Error _ as e -> e
        | Ok () -> (
            match ship_shard t cl ~shard ~addr with
            | Ok (epoch, changes) ->
                (* The destination owns the shard at [epoch]: adopt that
                   fact, then flip and unfence. *)
                ignore (Routing.observe cl.cl_routing ~shard ~epoch ~addr);
                Metrics.incr_migrations_out t.conn_metrics;
                Shard.end_handoff sh ~moved:true;
                logf t "handoff: shard %d now owned by %s at epoch %d (delta %d changes)" shard
                  addr epoch changes;
                Ok ()
            | Error _ as e ->
                Shard.end_handoff sh ~moved:false;
                e
            | exception e ->
                Shard.end_handoff sh ~moved:false;
                raise e))

(* A shard this node may import into: in range and not owned here. *)
let import_target t shard =
  match t.cluster with
  | None -> Error "not in cluster mode"
  | Some cl ->
      if shard < 0 || shard >= t.cfg.shards then
        Error (Printf.sprintf "shard %d out of range 0..%d" shard (t.cfg.shards - 1))
      else if owns t shard then
        Error (Printf.sprintf "shard %d is already owned by this node" shard)
      else Ok cl

let take_ownership t cl ~shard ~epoch =
  if not (Routing.observe cl.cl_routing ~shard ~epoch ~addr:cl.cl_self) then
    Error
      (Printf.sprintf "stale migration epoch %d (routing is at %d)" epoch
         (Routing.epoch cl.cl_routing))
  else begin
    Shard.set_owned t.shards.(shard) true;
    Metrics.incr_migrations_in t.conn_metrics;
    logf t "migration: imported shard %d, owned at epoch %d" shard epoch;
    Ok ()
  end

(* Migration import (destination side), on the receiving reactor.  Each
   handoff ships over a connection of its own, which stages the chunks
   into a private image of the shard, starting from the empty shard.  The
   final chunk installs the image as one operation through the no-wait
   entry under the reactor's pid, replacing whatever copy this node kept,
   and takes ownership at the sender's epoch.  No client mutation reaches
   an unowned shard; should admission refuse anyway, the ERR makes the
   sender unfence and keep the shard. *)
let mig_import t ~lpid conn ~shard ~epoch ~final changes =
  match import_target t shard with
  | Error _ as e -> e
  | Ok cl -> (
      let staged = List.assoc_opt shard conn.c_imports in
      let image = Kv_store.stage (Option.value staged ~default:Kv_store.empty_image) changes in
      let others = List.remove_assoc shard conn.c_imports in
      conn.c_imports <- (if final then others else (shard, image) :: others);
      if not final then Ok ()
      else
        let store = Shard.store t.shards.(shard) in
        match Kv_store.try_perform_batch store ~pid:lpid [ Kv_store.Install image ] with
        | Some _ -> take_ownership t cl ~shard ~epoch
        | None -> Error (Printf.sprintf "shard %d: admission refused the import" shard))

(* Forced takeover of an unowned shard at the successor epoch — the
   failover harness's reassignment after [kill-node]: the node sends its
   own loopback listener a final, empty MIGIMPORT.  The dead owner's data
   died with it (the cluster is shared-nothing, no replication): the shard
   restarts empty, trading durability for availability, and clients
   converge through the same TOPO/MOVED machinery as after a migration. *)
let adopt t ~shard =
  match t.cluster with
  | None -> Error "not in cluster mode"
  | Some cl -> (
      let self = Printf.sprintf "127.0.0.1:%d" t.actual_port in
      let req = Protocol.Mig_import (shard, Routing.epoch cl.cl_routing + 1, true, []) in
      match Netio.connect ~wire:Protocol.Binary ~timeout_s:10. self with
      | Error _ as e -> e
      | Ok conn -> Fun.protect ~finally:(fun () -> Netio.close conn) (fun () -> rpc_ok conn req))

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

let new_pending t = { muts = Array.make t.cfg.shards []; gets = [] }

(* The wait-free read plane, one batch per socket read: answer the queued
   GETs into [out], in decode order, with no ring, no worker and no
   admission slot.  [Shard.read_many] reads each shard of the table the
   batch touches off one load of its committed head and walks all of that
   shard's keys down the tree in lockstep.  Ownership is checked per shard
   right before that load, and an unowned key answers MOVED in its own
   position.
   One clock pair and one metrics update cover the batch; each GET records
   the batch's per-GET share of the lookup time. *)
let resolve_gets t conn out p =
  if p.gets <> [] then begin
    let gets = Array.of_list (List.rev p.gets) in
    p.gets <- [];
    let t0 = Metrics.now_us () in
    let found = Shard.read_many t.shards (Array.map fst gets) in
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

let shutting_down t =
  Metrics.incr_errors t.conn_metrics;
  Protocol.Error "server shutting down"

(* Dispatch each shard's pending mutations, in arrival order, as one batch
   routed by [Shard.route].  A quiet shard's list runs on this reactor, as
   process [lpid] of the shard's wrapper, a no-wait admission per
   [Shard.max_batch] items, its replies framed into [out]; a refusal hands
   the rest to the ring.  Replies made on the plane — inline results, or a
   refused batch's MOVED/ERR — land in [out] after the GETs decoded before
   them, and come off the connection's owed count right here; only the
   items a worker answers stay owed. *)
let flush_pending t ~lpid rc out p =
  let conn = Reactor.user rc in
  Array.iteri
    (fun s newest_first ->
      if newest_first <> [] then begin
        p.muts.(s) <- [];
        let items = List.rev newest_first in
        let refuse resp items =
          Reactor.owe rc (-List.length items);
          List.iter
            (fun it ->
              resolve_gets t conn out p;
              respond_now conn out it.tag (resp ()))
            items
        in
        let sh = t.shards.(s) in
        match Shard.route sh items with
        | Shard.Inline ->
            resolve_gets t conn out p;
            let store = Shard.store sh in
            let attempt chunk =
              exec_batch (Shard.metrics sh) chunk
                ~admit:(fun ops -> Kv_store.try_perform_batch store ~pid:lpid ops)
                ~out:(fun _ -> out)
              && begin
                   Reactor.owe rc (-List.length chunk);
                   true
                 end
            in
            Shard.run_inline sh items ~attempt ~refuse:(refuse (fun () -> shutting_down t))
        | Shard.Pushed -> ()
        | Shard.Not_owner -> refuse (fun () -> moved_resp t s) items
        | Shard.Shutting_down -> refuse (fun () -> shutting_down t) items
      end)
    p.muts

let handle_request t ~lpid rc out pending tag (req : Protocol.request) =
  let conn = Reactor.user rc in
  (* A mutation: queue it for this read's batched dispatch and keep going;
     [flush_pending] applies it inline or hands it to a worker, and until
     then the connection is owed its reply.  Untagged responses stay in
     order because the v1 contract keeps one request in flight. *)
  let queue key op cls =
    let shard = shard_of_key t key in
    Reactor.owe rc 1;
    pending.muts.(shard) <- { op; cls; rc; wire = conn.c_wire; tag } :: pending.muts.(shard)
  in
  (* A request that is not a store operation is answered right here; the
     GETs queued before it answer first, so inline replies keep decode
     order (and STATS counts them).  SCAN is cross-shard and wait-free, so
     it is answered here too, off the shards' committed heads. *)
  (match req with
  | Protocol.Get _ | Protocol.Set _ | Protocol.Del _ | Protocol.Update _ -> ()
  | Protocol.Scan _ | Protocol.Ping | Protocol.Stats | Protocol.Kill _ | Protocol.Topo
  | Protocol.Handoff _ | Protocol.Mig_import _ ->
      resolve_gets t conn out pending);
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
         back through the reactor mailbox; the owed reply keeps the
         connection from draining shut underneath it. *)
      Reactor.owe rc 1;
      let wire = conn.c_wire in
      ignore
        (Thread.create
           (fun () ->
             post_reply rc wire tag
               (match handoff t ~shard ~addr with
               | Ok () -> Protocol.Ok
               | Error msg ->
                   Metrics.incr_errors t.conn_metrics;
                   Protocol.Error msg))
           ())
  | Protocol.Mig_import (shard, epoch, final, changes) -> (
      match mig_import t ~lpid conn ~shard ~epoch ~final changes with
      | Ok () -> respond_now conn out tag Protocol.Ok
      | Error msg ->
          Metrics.incr_errors t.conn_metrics;
          respond_now conn out tag (Protocol.Error msg))
  | Protocol.Get key ->
      (* The wait-free read plane: queued, and answered with the read's
         other GETs by [resolve_gets] off the shards' committed heads.  A
         mutation is acknowledged only after its commit, so an
         acknowledged SET is always visible; and because no slot is needed,
         this keeps answering when all k of the shard's workers are dead.
         In cluster mode an unowned shard redirects instead: the local
         copy stops being authoritative the moment routing flips. *)
      pending.gets <- (key, tag) :: pending.gets
  | Protocol.Scan (start, count) ->
      (* Range reads ride the same wait-free plane: every shard's slice
         comes off one load of its committed head, so a SCAN answers
         consistently even when a whole shard's worker pool is dead.
         Cluster mode answers for the shards this node owns. *)
      let t0 = Metrics.now_us () in
      let pairs = Shard.scan t.shards ~start ~count:(min count max_scan) in
      Metrics.record t.conn_metrics Metrics.C_scan ~lat_us:(Metrics.now_us () - t0);
      Metrics.incr_inline_reads t.conn_metrics;
      respond_now conn out tag (Protocol.Range pairs)
  | Protocol.Set (key, v) -> queue key (Kv_store.Set (key, v)) Metrics.C_set
  | Protocol.Del key -> queue key (Kv_store.Delete key) Metrics.C_del
  | Protocol.Update (key, delta) -> queue key (Kv_store.Fetch_add (key, delta)) Metrics.C_update

(* Decode and handle every complete frame of the connection's input, then
   dispatch the read's mutations and resolve its GETs; the replies answered
   on the plane land in [out].  [false] means the stream is garbage and the
   connection must close. *)
let serve_read t ~lpid rc out pending =
  let conn = Reactor.user rc in
  let rec drain () =
    match Protocol.Req_decoder.next conn.c_dec with
    | Protocol.Dec_more -> true
    | Protocol.Dec_frame (tag, req) ->
        handle_request t ~lpid rc out pending tag req;
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
  (* Mutations first, so the workers start on any the ring gets while the
     loop walks the read's GETs. *)
  flush_pending t ~lpid rc out pending;
  resolve_gets t conn out pending;
  keep

(* The connection plane's input handler for the reactor that is process
   [lpid] of every shard's wrapper.  It runs on the owning reactor's loop
   domain; the only cross-thread traffic is the mailbox it answers to.
   [scratch] collects every reply produced while draining one socket read
   (pipelined GETs, inline mutations, MOVED, parse errors...) and lands in
   the connection's output buffer as one append.  The read's mutations and
   GETs collect in [pending]; the mutations are dispatched, one batch per
   shard, and the GETs resolved as one batch, before that append. *)
let on_data t ~lpid =
  let scratch = Buffer.create 4096 in
  let pending = new_pending t in
  fun rc bytes len ->
    let conn = Reactor.user rc in
    let dec = conn.c_dec in
    Protocol.Req_decoder.feed_bytes dec bytes ~off:0 ~len;
    (* The first bytes decide the wire; each item dispatched from here on
       carries it to the worker that answers it. *)
    (match Protocol.Req_decoder.wire dec with
    | Some w -> conn.c_wire <- w
    | None -> ());
    Buffer.clear scratch;
    let keep = serve_read t ~lpid rc scratch pending in
    if Buffer.length scratch > 0 then Reactor.append_buffer rc scratch;
    keep

(* A failed accept that is not [stop] or [crash] closing the listener (fd
   exhaustion, a kernel buffer shortage) is retried after this pause. *)
let accept_retry_s = 0.05

let accept_loop t =
  let next_reactor = ref 0 in
  let failing = ref false in
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Metrics.incr_connections t.conn_metrics;
        (* A reply that leaves in a second write (a ring fallback, a
           HANDOFF, a shutdown refusal) must not wait for the ACK of the
           first. *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let conn =
          { c_dec = Protocol.Req_decoder.create (); c_wire = Protocol.Text; c_imports = [] }
        in
        Reactor.add t.reactors.(!next_reactor) fd conn;
        next_reactor := (!next_reactor + 1) mod Array.length t.reactors;
        failing := false;
        loop ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> loop ()
    | exception Unix.Unix_error (e, _, _) ->
        (* Leave only once [stop] or [crash] closed the listener; any other
           failure is logged once per streak and retried. *)
        if not (Atomic.get t.listener_closed) then begin
          if not !failing then
            logf t "accept failed: %s; retrying every %.0f ms" (Unix.error_message e)
              (accept_retry_s *. 1000.);
          failing := true;
          Thread.delay accept_retry_s;
          loop ()
        end
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
  Array.iteri (fun s sh -> Shard.set_owned sh (s mod n = node)) t.shards;
  t.cluster <-
    Some { cl_node = node; cl_addrs = addr_arr; cl_self = addr_arr.(node); cl_routing = routing };
  logf t "cluster: node %d/%d at %s, owning %d of %d shards" node n addr_arr.(node)
    ((t.cfg.shards + n - 1 - node) / n)
    t.cfg.shards

(* Room for a burst of handshakes the accept loop has not reached yet; an
   overflowed SYN is retried by the client's kernel only after 1 s.  The
   kernel caps it at net.core.somaxconn. *)
let listen_backlog = 1024

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
  Unix.listen listen_fd listen_backlog;
  let actual_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (* Every shard's wrapper admits the workers (pids 0..workers-1) and the
     reactors (pids workers..workers+reactors-1). *)
  let pool = Shard.pool ~workers:cfg.workers ~log:cfg.log () in
  let shards =
    Array.init cfg.shards (fun id ->
        let store = Kv_store.create ~algo:cfg.algo ~n:(cfg.workers + cfg.reactors) ~k:cfg.k ()
        and metrics = Metrics.create () in
        Shard.create pool ~id ~store ~metrics ~apply:(work_batch store metrics))
  in
  let t =
    { cfg;
      pool;
      shards;
      conn_metrics = Metrics.create ();
      listen_fd;
      listener_closed = Atomic.make false;
      actual_port;
      listener = None;
      chaos_thread = None;
      reactors = [||];
      started_at = Unix.gettimeofday ();
      cluster = None;
      crashed = Atomic.make false }
  in
  Option.iter (fun (node, addrs) -> enable_cluster t ~node ~addrs) cfg.cluster;
  t.reactors <-
    Array.init cfg.reactors (fun i ->
        Reactor.create ~out_hwm:cfg.out_hwm ~slow_drain_s:cfg.slow_drain_s ~log:cfg.log ~id:i
          (on_data t ~lpid:(cfg.workers + i)));
  Array.iter Reactor.start t.reactors;
  t.listener <- Some (Thread.create (fun () -> accept_loop t) ());
  if cfg.chaos <> [] then t.chaos_thread <- Some (Thread.create (fun () -> chaos_loop t cfg.chaos) ());
  logf t
    "kexd serve: listening on 127.0.0.1:%d (shards=%d workers=%d/shard k=%d reactors=%d algo in \
     force)"
    actual_port cfg.shards cfg.workers cfg.k cfg.reactors;
  t

let stop ?(drain_timeout_s = 5.) t =
  (* 1. No worker starts and no list runs inline from here; stop
     accepting. *)
  Shard.stop t.pool;
  close_listener t;
  (* 2. Drain the rings (bounded: a stalled shard never drains), reap the
     morgue so parked "dead" workers release their slots, refuse whatever
     never got dispatched, and join the workers. *)
  Shard.retire t.pool t.shards ~drain_timeout_s ~refuse:(fun it ->
      post_reply it.rc it.wire it.tag (Protocol.Error "server shutting down"));
  (* 3. Retire the connection plane.  Workers went first: their final
     flushes post into reactor mailboxes, and the reactors' graceful stop
     (drain each connection's output, bounded, then close it) needs those
     posts already queued. *)
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
