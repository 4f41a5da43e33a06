(* One shard's state machine, with no I/O (see shard.mli).  Every step of
   it is a critical section under [fence_m] or one atomic update: those are
   the steps a model checker would interleave.  Ownership is an atomic
   written only under [fence_m], so the GET plane reads it lock-free while
   a route or a handoff's flip is serialized with the fence. *)

module Kex_lock = Kex_runtime.Kex_lock
module Kv_store = Kex_resilient.Kv_store
module Routing = Kex_cluster.Routing
module Sync = Kex_sync.Sync

(* Workers and the reactors' inline path apply at most this many items per
   admission; bounds both the latency a queued item can add to its
   batch-mates and the time one process keeps a slot. *)
let max_batch = 32

(* What every shard of one server shares: the worker count per shard, the
   spawn and log callbacks, the stop flag, every worker domain spawned so
   far, and the morgue.  Spawns happen under [workers_m] and only while
   [stopping] is false, so [retire] joins them all.  Killed workers park in
   the morgue holding their admission slot until [retire] opens it. *)
type pool = {
  workers : int;
  spawn : (unit -> unit) -> unit Domain.t;
  log : string -> unit;
  stopping : bool Atomic.t;
  workers_m : Mutex.t;
  mutable worker_domains : unit Domain.t list;
  morgue_m : Mutex.t;
  morgue_c : Condition.t;
  mutable morgue_open : bool;
}

(* One shard.  The fence is the migration's write barrier: [route] takes
   [fence_m], waits while [fenced], re-checks ownership and counts the list
   in flight, so once a handoff sets the fence no new item can slip past
   it, and once the handoff flips and unfences, latecomers see the shard
   unowned.  [handing_off] is the handoff's claim, taken with the ownership
   check and dropped with the flip or the abort.  [inflight] counts items
   routed (inline or to the ring) and not yet answered.  [kills_pending]
   counts this shard's workers marked for death that have not yet parked
   holding their slot.  [started] turns true, once, when the shard's
   workers are spawned. *)
type 'a t = {
  id : int;
  pool : pool;
  store : Kv_store.t;
  ring : 'a Wqueue.t;
  metrics : Metrics.t;
  apply : lpid:int -> 'a list -> unit;
  fence_m : Mutex.t;
  fence_c : Condition.t;
  mutable fenced : bool;
  mutable handing_off : bool;
  owned : bool Atomic.t;
  inflight : int Atomic.t;
  kills_pending : int Atomic.t;
  kill_flags : bool Atomic.t array;  (* indexed by the worker's pid in the shard *)
  started : bool Atomic.t;
}

let pool ?(spawn = Domain.spawn) ~workers ~log () =
  { workers;
    spawn;
    log;
    stopping = Atomic.make false;
    workers_m = Mutex.create ();
    worker_domains = [];
    morgue_m = Mutex.create ();
    morgue_c = Condition.create ();
    morgue_open = false }

let create pool ~id ~store ~metrics ~apply =
  { id;
    pool;
    store;
    ring = Wqueue.create ();
    metrics;
    apply;
    fence_m = Mutex.create ();
    fence_c = Condition.create ();
    fenced = false;
    handing_off = false;
    owned = Atomic.make true;
    inflight = Atomic.make 0;
    kills_pending = Atomic.make 0;
    kill_flags = Array.init pool.workers (fun _ -> Atomic.make false);
    started = Atomic.make false }

let logf pool fmt = Printf.ksprintf pool.log fmt
let store sh = sh.store
let ring sh = sh.ring
let metrics sh = sh.metrics
let owned sh = Atomic.get sh.owned
let inflight sh = Atomic.get sh.inflight
let killed sh ~lpid = Atomic.get sh.kill_flags.(lpid)
let stopping pool = Atomic.get pool.stopping
let spawned pool = Sync.with_lock pool.workers_m (fun () -> List.length pool.worker_domains)

(* [n] routed items are answered (or refused): the one place the in-flight
   count drops, so the fence's drain may proceed past them. *)
let answered sh n = ignore (Atomic.fetch_and_add sh.inflight (-n))

(* -------------------------------- workers ------------------------------- *)

(* Crash: park forever holding one of this shard's admission slots.  If
   every slot is already wedged the acquire itself blocks — same observable
   stall, exactly the k-th-failure boundary the paper predicts, scoped to
   the shard. *)
let die sh ~lpid =
  Metrics.incr_deaths sh.metrics;
  logf sh.pool "worker %d (shard %d): killed (crashing at the admission boundary)"
    ((sh.id * sh.pool.workers) + lpid)
    sh.id;
  let asg = Kv_store.assignment sh.store in
  let name = Kex_lock.Assignment.acquire asg ~pid:lpid in
  (* The slot is burned: the shard may run inline again. *)
  Atomic.decr sh.kills_pending;
  Sync.with_lock sh.pool.morgue_m (fun () ->
      while not sh.pool.morgue_open do
        Condition.wait sh.pool.morgue_c sh.pool.morgue_m
      done);
  (* Shutdown reaps the morgue so domains join and the process exits 0. *)
  Kex_lock.Assignment.release asg ~pid:lpid ~name

let worker_loop sh ~lpid =
  let rec loop () =
    match Wqueue.pop_batch sh.ring ~max:max_batch with
    | [] -> ()  (* ring closed: shutdown *)
    | items ->
        if Atomic.get sh.kill_flags.(lpid) then begin
          (* Mid-claim crash: the claimed batch is re-dispatched in order
             (the supervisor's job in a multi-process deployment); the slot
             this worker is about to take is lost for good. *)
          List.iter
            (fun it ->
              ignore (Wqueue.push_front sh.ring it);
              Metrics.incr_redispatched sh.metrics)
            (List.rev items);
          die sh ~lpid
        end
        else begin
          sh.apply ~lpid items;
          answered sh (List.length items);
          loop ()
        end
  in
  loop ()

(* Start the shard's worker domains on first use: its first ring push, or
   the first kill aimed at one of them.  They are spawned once per shard
   lifetime, on the thread that first needs them, and a shard that only
   ever runs inline never starts any.  [false] means they never started
   and [stop] has begun, which spawns no more.  A spawn that fails (the
   runtime's domain limit) is logged, and the shard keeps the workers it
   got. *)
let start_workers sh =
  let pool = sh.pool in
  Atomic.get sh.started
  || Sync.with_lock pool.workers_m (fun () ->
         if not (Atomic.get sh.started || Atomic.get pool.stopping) then begin
           Atomic.set sh.started true;
           try
             for lpid = 0 to pool.workers - 1 do
               pool.worker_domains <-
                 pool.spawn (fun () -> worker_loop sh ~lpid) :: pool.worker_domains
             done
           with e -> logf pool "shard %d: starting workers failed: %s" sh.id (Printexc.to_string e)
         end;
         Atomic.get sh.started)

(* The one way into the ring: start the workers if need be, then push the
   list whole.  [false] refuses it: the workers can no longer start, or the
   ring is closed. *)
let push sh items = start_workers sh && Wqueue.push_list sh.ring items

(* Mark worker [lpid] for death.  Pending before the flag is visible, and
   once per victim.  A victim that has not started yet dies at its first
   admission boundary. *)
let kill sh ~lpid =
  Atomic.incr sh.kills_pending;
  if Atomic.exchange sh.kill_flags.(lpid) true then Atomic.decr sh.kills_pending;
  ignore (start_workers sh)

(* -------------------------------- routing ------------------------------- *)

type route = Inline | Pushed | Not_owner | Shutting_down

(* The check-then-count is under [fence_m], so a fence set after our check
   cannot miss our items: the drain sees [inflight] > 0.  The count comes
   before the push, so a worker's answer never drives it below 0.  One
   fence check per list, at most one ring lock and one worker wakeup. *)
let route sh items =
  Sync.with_lock sh.fence_m (fun () ->
      while sh.fenced do
        Condition.wait sh.fence_c sh.fence_m
      done;
      if not (Atomic.get sh.owned) then Not_owner
      else begin
        let n = List.length items in
        ignore (Atomic.fetch_and_add sh.inflight n);
        if
          Atomic.get sh.kills_pending = 0
          && (not (Atomic.get sh.pool.stopping))
          && Wqueue.length sh.ring = 0
        then Inline
        else if push sh items then Pushed
        else begin
          answered sh n;
          Shutting_down
        end
      end)

(* The rest of a refused list is already counted in flight, so it enters
   the ring exactly as a ring route would have. *)
let run_inline sh ~attempt ~refuse items =
  let rec split_at n = function
    | x :: rest when n > 0 ->
        let chunk, rest = split_at (n - 1) rest in
        (x :: chunk, rest)
    | rest -> ([], rest)
  in
  let rec go items =
    if items <> [] then begin
      let chunk, rest = split_at max_batch items in
      if attempt chunk then begin
        Metrics.incr_inline_admissions sh.metrics;
        answered sh (List.length chunk);
        go rest
      end
      else begin
        Metrics.incr_inline_aborts sh.metrics;
        if not (push sh items) then begin
          answered sh (List.length items);
          refuse items
        end
      end
    end
  in
  go items

(* ------------------------------- ownership ------------------------------ *)

let set_owned sh owned = Sync.with_lock sh.fence_m (fun () -> Atomic.set sh.owned owned)

let claim_handoff sh =
  Sync.with_lock sh.fence_m (fun () ->
      if not (Atomic.get sh.owned) then
        Error (Printf.sprintf "shard %d is not owned by this node" sh.id)
      else if sh.handing_off then
        Error (Printf.sprintf "shard %d is already being handed off" sh.id)
      else begin
        sh.handing_off <- true;
        Ok ()
      end)

(* Set the fence, then drain: routes are fenced out, so in-flight can only
   sink.  The wait polls outside the lock. *)
let fence sh ~timeout_s =
  Sync.with_lock sh.fence_m (fun () -> sh.fenced <- true);
  let deadline = Unix.gettimeofday () +. timeout_s in
  while Atomic.get sh.inflight > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  Atomic.get sh.inflight = 0

let end_handoff sh ~moved =
  Sync.with_lock sh.fence_m (fun () ->
      if moved then Atomic.set sh.owned false;
      sh.fenced <- false;
      sh.handing_off <- false;
      Condition.broadcast sh.fence_c)

(* ------------------------------- the table ------------------------------ *)

(* A batch of wait-free reads.  One pass buckets the key positions by
   shard; each non-empty bucket is then read off one head read of its
   shard ([Kv_store.read_many]), results landing back in key order.
   Ownership is read once per shard the batch touches, just before that
   shard's read; an unowned shard is not read and its keys answer
   [Error shard]. *)
let read_many shards keys =
  let n = Array.length shards in
  let buckets = Array.make n [] in
  for i = Array.length keys - 1 downto 0 do
    let s = Routing.key_shard ~shards:n keys.(i) in
    buckets.(s) <- i :: buckets.(s)
  done;
  let out = Array.make (Array.length keys) (Ok None) in
  Array.iteri
    (fun s here ->
      if here <> [] then
        if owned shards.(s) then
          let found =
            Kv_store.read_many shards.(s).store (Array.of_list (List.map (Array.get keys) here))
          in
          List.iteri (fun j i -> out.(i) <- Ok found.(j)) here
        else List.iter (fun i -> out.(i) <- Error s) here)
    buckets;
  out

(* Range reads span shards (routing is by hash, not by range), so a scan
   merges the owned shards' wait-free scans.  Each per-shard slice is
   internally consistent; the merge is the usual sharded-store contract of
   per-shard (not global) atomicity. *)
let scan shards ~start ~count =
  if count <= 0 then []
  else begin
    let all =
      List.concat_map
        (fun sh -> if owned sh then Kv_store.scan sh.store ~start ~count else [])
        (Array.to_list shards)
    in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) all in
    List.filteri (fun i _ -> i < count) sorted
  end

(* ------------------------------- shutdown ------------------------------- *)

let stop pool = Atomic.set pool.stopping true

let retire pool shards ~drain_timeout_s ~refuse =
  stop pool;
  (* Let queued work drain (bounded: a stalled shard never drains). *)
  let queued () = Array.fold_left (fun acc sh -> acc + Wqueue.length sh.ring) 0 shards in
  let deadline = Unix.gettimeofday () +. drain_timeout_s in
  while queued () > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  (* Reap the morgue: parked "dead" workers release their slots and exit,
     unwedging any live worker stuck at admission. *)
  Sync.with_lock pool.morgue_m (fun () ->
      pool.morgue_open <- true;
      Condition.broadcast pool.morgue_c);
  (* Close every ring; refuse whatever never got dispatched. *)
  Array.iter
    (fun sh ->
      let leftovers = Wqueue.close sh.ring in
      answered sh (List.length leftovers);
      List.iter refuse leftovers)
    shards;
  (* [stopping] is set, so the list read under [workers_m] is final. *)
  List.iter Domain.join (Sync.with_lock pool.workers_m (fun () -> pool.worker_domains))
