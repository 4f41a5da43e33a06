(* Lock discipline: this module is declared atomic-only in srclint's
   guarded-by manifest — every counter is an [Atomic.t] updated with
   CAS loops / fetch_and_add, and introducing a [Mutex] here is an S5
   finding.  The metrics plane is touched on every request by every
   worker; a lock would serialize exactly the paths the k-exclusion
   wrapper exists to keep parallel. *)

type op_class = C_get | C_set | C_del | C_update | C_scan | C_moved

let op_classes = [| C_get; C_set; C_del; C_update; C_scan; C_moved |]
let class_index = function
  | C_get -> 0
  | C_set -> 1
  | C_del -> 2
  | C_update -> 3
  | C_scan -> 4
  | C_moved -> 5
let class_name = function
  | C_get -> "get"
  | C_set -> "set"
  | C_del -> "del"
  | C_update -> "update"
  | C_scan -> "scan"
  | C_moved -> "moved"

module Hist = Kex_sim.Stats.Hist

(* Latency stamps.  Wall time can step backwards (NTP slew, VM clock
   fixups), and a negative stamp used to poison [lat_sum_us] while the
   histogram clamped — skewing the mean away from the percentiles.  Without
   a monotonic clock in the stdlib, the next best thing is a monotonicized
   wall clock: one process-wide high-water mark, so consecutive stamps never
   decrease and latency deltas are never negative.  (A backwards step shows
   up as a brief run of zero-latency samples instead of a poisoned mean.) *)
let now_floor_us = Atomic.make 0

let now_us () =
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  let rec bump () =
    let prev = Atomic.get now_floor_us in
    if t <= prev then prev
    else if Atomic.compare_and_set now_floor_us prev t then t
    else bump ()
  in
  bump ()

type t = {
  served : int Atomic.t array;  (* completed store ops, per class *)
  errors : int Atomic.t;  (* requests answered with ERR *)
  deaths : int Atomic.t;  (* workers crashed (chaos or KILL) *)
  connections : int Atomic.t;  (* connections accepted, lifetime *)
  redispatched : int Atomic.t;  (* requests requeued off a dead worker *)
  batches : int Atomic.t;  (* admission entries (one per applied batch) *)
  inline_admissions : int Atomic.t;  (* batches a reactor applied itself *)
  inline_aborts : int Atomic.t;  (* reactor admissions refused, sent to the ring *)
  inline_reads : int Atomic.t;  (* GETs and SCANs served wait-free inline *)
  read_batches : int Atomic.t;  (* GET batches resolved on the read plane *)
  migrations_out : int Atomic.t;  (* shards handed off to another node *)
  migrations_in : int Atomic.t;  (* shards received from another node *)
  lat_sum_us : int Atomic.t array;  (* per class, for a cheap mean *)
  lat_max_us : int Atomic.t array;
  (* Per-class latency histograms, one atomic counter per fixed bucket.
     Fixed layout makes the cross-instance merge an elementwise add, so
     percentiles stay well-defined when the server keeps one [t] per shard
     and STATS merges them. *)
  lat_hist : int Atomic.t array array;
}

let create () =
  { served = Array.init (Array.length op_classes) (fun _ -> Atomic.make 0);
    errors = Atomic.make 0;
    deaths = Atomic.make 0;
    connections = Atomic.make 0;
    redispatched = Atomic.make 0;
    batches = Atomic.make 0;
    inline_admissions = Atomic.make 0;
    inline_aborts = Atomic.make 0;
    inline_reads = Atomic.make 0;
    read_batches = Atomic.make 0;
    migrations_out = Atomic.make 0;
    migrations_in = Atomic.make 0;
    lat_sum_us = Array.init (Array.length op_classes) (fun _ -> Atomic.make 0);
    lat_max_us = Array.init (Array.length op_classes) (fun _ -> Atomic.make 0);
    lat_hist = Array.init (Array.length op_classes) (fun _ -> Array.init Hist.n_buckets (fun _ -> Atomic.make 0)) }

let bump_max a v =
  let rec go () =
    let m = Atomic.get a in
    if v > m && not (Atomic.compare_and_set a m v) then go ()
  in
  go ()

(* Clamp once, up front: sum, max and histogram must agree on the sample,
   or a single negative stamp drags the mean below percentiles that never
   saw it.  [n] samples of one latency cost the same four atomic updates
   as one — batches record their per-item share this way. *)
let record_many t cls ~n ~lat_us =
  if n > 0 then begin
    let lat_us = max 0 lat_us in
    let i = class_index cls in
    ignore (Atomic.fetch_and_add t.served.(i) n);
    ignore (Atomic.fetch_and_add t.lat_sum_us.(i) (n * lat_us));
    bump_max t.lat_max_us.(i) lat_us;
    ignore (Atomic.fetch_and_add t.lat_hist.(i).(Hist.bucket_of lat_us) n)
  end

let record t cls ~lat_us = record_many t cls ~n:1 ~lat_us

let incr_errors t = Atomic.incr t.errors
let incr_deaths t = Atomic.incr t.deaths
let incr_connections t = Atomic.incr t.connections
let incr_redispatched t = Atomic.incr t.redispatched
let incr_batches t = Atomic.incr t.batches
let incr_inline_admissions t = Atomic.incr t.inline_admissions
let incr_inline_aborts t = Atomic.incr t.inline_aborts
let incr_inline_reads t = Atomic.incr t.inline_reads
let incr_migrations_out t = Atomic.incr t.migrations_out
let incr_migrations_in t = Atomic.incr t.migrations_in
let deaths t = Atomic.get t.deaths

let incr_read_batch t ~gets =
  ignore (Atomic.fetch_and_add t.inline_reads gets);
  Atomic.incr t.read_batches

let served t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.served

(* Snapshot class [i]'s histogram of one instance as a mergeable value. *)
let hist_of t i =
  Hist.of_counts ~max_v:(Atomic.get t.lat_max_us.(i))
    (Array.map Atomic.get t.lat_hist.(i))

let sum_over ts f = List.fold_left (fun acc t -> acc + f t) 0 ts

(* STATS pairs over any number of instances (the server keeps one per shard
   plus one for the connection plane).  Counters sum; histograms merge
   bucketwise — both exact, so the aggregate p50/p99 are well-defined no
   matter how work was spread over shards and workers. *)
let pairs_merged ts =
  let per_class f = Array.to_list (Array.map (fun c -> f c) op_classes) in
  let class_hists =
    Array.init (Array.length op_classes) (fun i -> Hist.merge (List.map (fun t -> hist_of t i) ts))
  in
  let all_hist = Hist.merge (Array.to_list class_hists) in
  [ ("served", sum_over ts served);
    ("errors", sum_over ts (fun t -> Atomic.get t.errors));
    ("deaths", sum_over ts (fun t -> Atomic.get t.deaths));
    ("connections", sum_over ts (fun t -> Atomic.get t.connections));
    ("redispatched", sum_over ts (fun t -> Atomic.get t.redispatched));
    ("batches", sum_over ts (fun t -> Atomic.get t.batches));
    ("inline_admissions", sum_over ts (fun t -> Atomic.get t.inline_admissions));
    ("inline_aborts", sum_over ts (fun t -> Atomic.get t.inline_aborts));
    ("inline_reads", sum_over ts (fun t -> Atomic.get t.inline_reads));
    ("read_batches", sum_over ts (fun t -> Atomic.get t.read_batches));
    ("migrations_out", sum_over ts (fun t -> Atomic.get t.migrations_out));
    ("migrations_in", sum_over ts (fun t -> Atomic.get t.migrations_in));
    ("p50_us", Hist.percentile all_hist 0.5);
    ("p99_us", Hist.percentile all_hist 0.99) ]
  @ per_class (fun c ->
        ("served_" ^ class_name c, sum_over ts (fun t -> Atomic.get t.served.(class_index c))))
  @ per_class (fun c ->
        let i = class_index c in
        let n = sum_over ts (fun t -> Atomic.get t.served.(i)) in
        let sum = sum_over ts (fun t -> Atomic.get t.lat_sum_us.(i)) in
        ("mean_us_" ^ class_name c, if n = 0 then 0 else sum / n))
  @ per_class (fun c ->
        let i = class_index c in
        ("p99_us_" ^ class_name c, Hist.percentile class_hists.(i) 0.99))
  @ per_class (fun c ->
        ("max_us_" ^ class_name c,
         List.fold_left (fun acc t -> max acc (Atomic.get t.lat_max_us.(class_index c))) 0 ts))

let pairs t = pairs_merged [ t ]
