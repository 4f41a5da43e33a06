(* The kexd load generator: client domains drive a server with a weighted
   YCSB-style mix (GET/SET/DEL/UPDATE plus read-modify-write and SCAN) over
   a configurable key space — uniform, Zipfian, or latest-biased key
   choice (Keydist) — record per-request latency, and aggregate with the
   repo's own histogram machinery (Kex_sim.Stats.Hist).  Requests that
   time out or hit a dropped connection count as errors and the client
   reconnects — so a stalled server (k workers killed) shows up as errors
   and collapsed throughput rather than a hung tool.  A dead node's
   requests fail fast at a bounded rate (at most [pipeline] per connection
   per round: a poll round while any node answers, a 50 ms sleep while
   none can) and never throttle the traffic to live nodes.

   Each client domain runs one poll(2) loop over [conns_per_client] = N
   connections, each keeping a window of [pipeline] = W id-tagged requests
   in flight and matching responses by id (they may return out of order);
   W = 1 is a window of one.  N is the connection-scaling knob: C total
   connections cost only C/N domains, so one run can push C to 256 without
   256 domains.  Latency is stamped at *enqueue* — the moment the request
   joins the window, before any socket write — so queueing delay inside
   the window is charged to the request, not hidden.  Keys route through a
   routing table, a one-entry one for a single server and the cluster's
   epoch-versioned one in cluster mode (see the client loop below).

   [wire] selects the framing: the v1 text protocol or the binary v2
   frames — same ops, same semantics, different codec cost.  RMW is a GET
   followed by a SET of the same key, charged as one request whose latency
   spans both legs (the SET inherits the GET's enqueue stamp). *)

module Hist = Kex_sim.Stats.Hist

type config = {
  host : string;
  port : int;
  connections : int;
  duration_s : float;
  mix : (string * int) list;  (* ("get"|"set"|...|"rmw"|"scan", weight) *)
  keys : int;
  dist : Keydist.dist;  (* how ops pick keys from [0, keys) *)
  value_size : int;
  value_size_max : int;  (* > value_size: sizes uniform in the range *)
  scan_len : int;  (* SCAN range length *)
  seed : int;
  timeout_s : float;  (* per-request socket timeout *)
  pipeline : int;  (* id-tagged requests in flight per connection *)
  conns_per_client : int;  (* connections per client domain *)
  wire : Protocol.wire;
  phase_marks : float list;  (* split [0..duration] for per-phase stats *)
  cluster : string list;  (* seed node addrs; non-empty switches on routing *)
  expect_dead : string list;  (* addrs whose errors are expected (kill-node) *)
}

let default_config =
  { host = "127.0.0.1";
    port = 7070;
    connections = 4;
    duration_s = 5.;
    mix = [ ("get", 80); ("set", 20) ];
    keys = 64;
    dist = Keydist.Uniform;
    value_size = 16;
    value_size_max = 0;
    scan_len = 16;
    seed = 42;
    timeout_s = 2.;
    pipeline = 1;
    conns_per_client = 1;
    wire = Protocol.Text;
    phase_marks = [];
    cluster = [];
    expect_dead = [] }

let op_kinds = [ "get"; "set"; "del"; "update"; "rmw"; "scan" ]
let n_kinds = List.length op_kinds

let parse_mix s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> (
        match List.rev acc with
        | [] -> Error "empty mix"
        | mix when List.exists (fun (_, w) -> w > 0) mix -> Ok mix
        | _ -> Error "mix weights are all zero")
    | p :: rest -> (
        match String.split_on_char '=' (String.trim p) with
        | [ kind; w ] when List.mem kind op_kinds -> (
            match int_of_string_opt w with
            | Some w when w >= 0 -> go ((kind, w) :: acc) rest
            | _ -> Error (Printf.sprintf "mix %S: bad weight %S" s w))
        | [ kind; _ ] -> Error (Printf.sprintf "mix %S: unknown op %S (use %s)" s kind (String.concat "/" op_kinds))
        | _ -> Error (Printf.sprintf "mix %S: entries look like get=80" s))
  in
  go [] parts

let mix_to_string mix =
  String.concat "," (List.map (fun (k, w) -> Printf.sprintf "%s=%d" k w) mix)

(* ------------------------------- sampling ------------------------------- *)

(* One flat record per request, appended lock-free into per-connection
   buffers: (t_offset_ms, latency_us, op_kind, ok). *)
type samples = {
  mutable t_off_ms : int array;
  mutable lat_us : int array;
  mutable kind : int array;
  mutable ok : bool array;
  mutable len : int;
}

let samples_create () =
  { t_off_ms = Array.make 1024 0;
    lat_us = Array.make 1024 0;
    kind = Array.make 1024 0;
    ok = Array.make 1024 false;
    len = 0 }

let samples_push s ~t_off_ms ~lat_us ~kind ~ok =
  if s.len = Array.length s.t_off_ms then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    s.t_off_ms <- grow s.t_off_ms 0;
    s.lat_us <- grow s.lat_us 0;
    s.kind <- grow s.kind 0;
    s.ok <- grow s.ok false
  end;
  s.t_off_ms.(s.len) <- t_off_ms;
  s.lat_us.(s.len) <- lat_us;
  s.kind.(s.len) <- kind;
  s.ok.(s.len) <- ok;
  s.len <- s.len + 1

(* ------------------------------- the client ----------------------------- *)

exception Req_failed of string

(* Reconnect backoff: a refused connect (server down) fails instantly, so
   without a pause a dead server turns the client into a busy loop of
   errors.  The delay starts at 50 ms and doubles to a 2 s cap; any
   successful connect resets it. *)
let backoff_init = 0.05
let backoff_cap = 2.0

let kind_index k =
  match k with
  | "get" -> 0
  | "set" -> 1
  | "del" -> 2
  | "update" -> 3
  | "rmw" -> 4
  | "scan" -> 5
  | _ -> -1

(* Per-connection generator state: the key sampler plus a pre-rolled random
   blob values are sliced from, so the hot path allocates one string per
   SET instead of running a char-level closure. *)
type gen = { g_rng : Random.State.t; g_kd : Keydist.t; g_blob : string }

let gen_create cfg ~conn_id =
  let rng = Random.State.make [| cfg.seed; conn_id |] in
  let vmax = max cfg.value_size cfg.value_size_max in
  { g_rng = rng;
    g_kd = Keydist.create cfg.dist ~keys:cfg.keys;
    g_blob = String.init (max 1 vmax) (fun _ -> Char.chr (32 + Random.State.int rng 95)) }

let gen_value cfg g =
  let vmax = max cfg.value_size cfg.value_size_max in
  let len =
    if vmax > cfg.value_size then
      cfg.value_size + Random.State.int g.g_rng (vmax - cfg.value_size + 1)
    else cfg.value_size
  in
  String.sub g.g_blob 0 len

(* One generated operation: the request to send, its mix kind, and whether
   a SET of the same key follows once this GET lands (RMW). *)
type gen_op = { g_kind : int; g_req : Protocol.request; g_rmw : bool }

let pick_op cfg g =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 cfg.mix in
  let roll = Random.State.int g.g_rng total in
  let rec pick acc = function
    | [] -> assert false
    | (kind, w) :: rest -> if roll < acc + w then kind else pick (acc + w) rest
  in
  let kind = pick 0 cfg.mix in
  let sample_key () = Keydist.key_of_index (Keydist.sample g.g_kd g.g_rng) in
  match kind with
  | "get" -> { g_kind = 0; g_req = Protocol.Get (sample_key ()); g_rmw = false }
  | "set" ->
      (* Under the latest-biased distribution a SET is an *insert*: it
         extends the key space by one and becomes the new hot end (YCSB
         workload D's writer).  Other distributions overwrite in place. *)
      let key =
        match cfg.dist with
        | Keydist.Latest ->
            Keydist.advance g.g_kd;
            Keydist.key_of_index (Keydist.newest g.g_kd)
        | _ -> sample_key ()
      in
      { g_kind = 1; g_req = Protocol.Set (key, gen_value cfg g); g_rmw = false }
  | "del" -> { g_kind = 2; g_req = Protocol.Del (sample_key ()); g_rmw = false }
  | "update" -> { g_kind = 3; g_req = Protocol.Update (sample_key (), 1); g_rmw = false }
  | "rmw" ->
      let key = sample_key () in
      { g_kind = 4; g_req = Protocol.Get key; g_rmw = true }
  | "scan" -> { g_kind = 5; g_req = Protocol.Scan (sample_key (), cfg.scan_len); g_rmw = false }
  | _ -> assert false

(* ------------------------------ the client loop -------------------------- *)

(* Every client domain runs one poll(2) loop over [conns_per_client] slots.
   A slot is one logical client: it keeps a window of [pipeline] id-tagged
   requests in flight (W = 1 is a window of one) and holds one socket per
   node it has sent to.  Keys route through a [Routing.t]: against a single
   server it is a one-entry table naming [host:port]; in cluster mode it is
   bootstrapped with TOPO from any seed node, adopts any strictly newer
   epoch a MOVED reply teaches (so a request chases at most one redirect
   per epoch), and is refreshed whenever a node stops answering.

   A socket that closes, desyncs, or has requests in flight and no bytes
   for [timeout_s] fails every request in flight there, and that node's
   reconnect backoff window opens.  Requests routed to a node inside its
   window fail fast instead of re-attempting the refused connect.  Fast
   failures take no window space, so traffic to live nodes keeps its full
   window, and the error rate stays bounded: each round charges a slot at
   most [pipeline] fast failures, a round with requests in flight waits
   for a response (at most 20 ms), and a round that leaves nothing in
   flight sleeps 50 ms.  While any node answers, a dead node thus costs at
   most [pipeline] errors per slot per round; when none does, per slot per
   50 ms.  Errors are attributed to the node they were routed to; errors
   on nodes listed in [expect_dead] are also counted as expected — the
   kill-node experiment's way of asserting "dead shards may time out, but
   surviving shards must not fail". *)

module Routing = Kex_cluster.Routing

type client_stats = {
  mutable cs_redirects : int;  (* MOVED replies followed *)
  mutable cs_expected : int;  (* errors attributed to expect_dead nodes *)
  cs_node_errors : (string, int ref) Hashtbl.t;  (* addr -> error count *)
}

(* One TOPO exchange on a throwaway connection (interleaving it into a
   pipelined stream would need its own id bookkeeping for no benefit).
   Returns the table iff the node answered with a complete one. *)
let fetch_topo cfg addr =
  match Netio.connect ~wire:cfg.wire ~timeout_s:cfg.timeout_s addr with
  | Error _ -> None
  | Ok p ->
      let res =
        match Netio.call p Protocol.Topo with
        | Ok (Protocol.Topo_reply (epoch, entries)) when entries <> [] ->
            let shards = List.length entries in
            let owners = Array.make shards "" in
            List.iter (fun (s, a) -> if s >= 0 && s < shards then owners.(s) <- a) entries;
            if Array.exists (fun a -> a = "") owners then None else Some (epoch, entries, owners)
        | _ -> None
      in
      Netio.close p;
      res

(* An in-flight (or re-dispatchable) request: enough to re-route it after a
   MOVED and to launch the RMW write leg under the original enqueue stamp,
   so the one recorded sample spans the whole read-modify-write. *)
type entry = {
  e_enq_us : int;  (* stamped when the request joins the window *)
  e_t_off_ms : int;
  e_kind : int;
  e_key : string;  (* what the routing table hashes *)
  e_req : Protocol.request;
  e_rmw : bool;  (* a write leg still follows this request *)
  e_redirects : int;
}

(* One slot's connection to one node, with that node's reconnect backoff:
   inside [l_retry_at] requests routed here fail fast.  [l_out] collects the
   requests sent during one fill round, shipped as one write. *)
type link = {
  l_slot : slot;
  l_addr : string;
  mutable l_sock : (Unix.file_descr * Protocol.Resp_decoder.t) option;
  mutable l_last_rx : float;  (* progress stamp for the request timeout *)
  l_inflight : (int, entry) Hashtbl.t;
  l_out : Buffer.t;
  mutable l_backoff : float;
  mutable l_retry_at : float;
}

and slot = {
  s_links : (string, link) Hashtbl.t;  (* node addr -> this slot's link *)
  s_pending : entry Queue.t;  (* MOVED re-routes and RMW write legs *)
  mutable s_inflight : int;  (* across all of the slot's links *)
}

(* A request may bounce MOVED a few times mid-migration (stale table, then
   a table that is itself flipping); past this it counts as an error. *)
let max_redirects = 3

let client_loop cfg ~t0 ~conn_id samples cs =
  let g = gen_create cfg ~conn_id in
  let deadline = t0 +. cfg.duration_s in
  let buf = Bytes.create 65536 in
  let slots =
    Array.init cfg.conns_per_client (fun _ ->
        { s_links = Hashtbl.create 4; s_pending = Queue.create (); s_inflight = 0 })
  in
  (* Every link of every slot, for the poll set. *)
  let links = ref [] in
  let routing =
    ref
      (if cfg.cluster = [] then
         Some (Routing.initial ~addrs:[ Printf.sprintf "%s:%d" cfg.host cfg.port ] ~shards:1)
       else None)
  in
  let last_refresh = ref 0. in
  (* Re-learn the table from whoever answers — seeds plus every address
     MOVED ever named.  Rate-limited: a dead node triggers this on every
     failure, and one TOPO per 200 ms is plenty to chase a migration. *)
  let refresh () =
    let now = Unix.gettimeofday () in
    if cfg.cluster <> [] && now -. !last_refresh >= 0.2 then begin
      last_refresh := now;
      let addrs = List.sort_uniq compare (cfg.cluster @ List.map (fun l -> l.l_addr) !links) in
      let rec try_addrs = function
        | [] -> ()
        | a :: rest -> (
            match fetch_topo cfg a with
            | Some (epoch, entries, owners) -> (
                match !routing with
                | None -> routing := Some (Routing.create ~epoch ~owners)
                | Some r -> ignore (Routing.install r ~epoch ~owners:entries))
            | None -> try_addrs rest)
      in
      try_addrs addrs
    end
  in
  let record_ok e =
    samples_push samples ~t_off_ms:e.e_t_off_ms
      ~lat_us:(Metrics.now_us () - e.e_enq_us)
      ~kind:e.e_kind ~ok:true
  in
  let record_err addr e =
    samples_push samples ~t_off_ms:e.e_t_off_ms
      ~lat_us:(Metrics.now_us () - e.e_enq_us)
      ~kind:e.e_kind ~ok:false;
    (match Hashtbl.find_opt cs.cs_node_errors addr with
    | Some r -> incr r
    | None -> Hashtbl.add cs.cs_node_errors addr (ref 1));
    if List.mem addr cfg.expect_dead then cs.cs_expected <- cs.cs_expected + 1
  in
  (* Socket death: every request in flight there becomes an error charged
     from its enqueue, the socket drops and the backoff window opens. *)
  let fail_link l =
    Hashtbl.iter (fun _ e -> record_err l.l_addr e) l.l_inflight;
    l.l_slot.s_inflight <- l.l_slot.s_inflight - Hashtbl.length l.l_inflight;
    Hashtbl.reset l.l_inflight;
    Buffer.clear l.l_out;
    (match l.l_sock with
    | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    l.l_sock <- None;
    l.l_retry_at <- Unix.gettimeofday () +. l.l_backoff;
    l.l_backoff <- Float.min (l.l_backoff *. 2.) backoff_cap;
    refresh ()
  in
  (* Poll scratch, one entry per link: preallocated and grown only when a
     link appears, because at 64+ sockets per domain rebuilding fd lists
     every 20 ms phase costs more than the requests themselves.  [pflags]
     is in-out, so it is rewritten on every phase anyway. *)
  let pfds = ref [||] and pflags = ref [||] and plinks = ref [||] in
  let link_of sl addr =
    match Hashtbl.find_opt sl.s_links addr with
    | Some l -> l
    | None ->
        let l =
          { l_slot = sl; l_addr = addr; l_sock = None; l_last_rx = 0.;
            l_inflight = Hashtbl.create (2 * cfg.pipeline); l_out = Buffer.create 1024;
            l_backoff = backoff_init; l_retry_at = 0. }
        in
        Hashtbl.add sl.s_links addr l;
        links := l :: !links;
        let n = List.length !links in
        if n > Array.length !pfds then begin
          pfds := Array.make (2 * n) Unix.stdin;
          pflags := Array.make (2 * n) 0;
          plinks := Array.make (2 * n) l
        end;
        l
  in
  let owner r e = Routing.owner r (Routing.shard_of_key r e.e_key) in
  let next_id = ref 0 in
  let send l e =
    let id = !next_id in
    incr next_id;
    (* Going idle -> busy: the no-rx clock starts at this send, not at the
       last response before the idle gap, or a quiet spell would count
       toward the timeout and fail the first request after it. *)
    if Hashtbl.length l.l_inflight = 0 then l.l_last_rx <- Unix.gettimeofday ();
    Hashtbl.replace l.l_inflight id e;
    l.l_slot.s_inflight <- l.l_slot.s_inflight + 1;
    Protocol.encode_request_wire l.l_out cfg.wire ~id:(Some id) e.e_req
  in
  (* Set when a dispatch finds no topology at all: the round stops filling. *)
  let stalled = ref false in
  (* Route [e] to its shard's owner; [false] = failed fast. *)
  let dispatch sl e =
    match !routing with
    | None ->
        record_err "(no-topo)" e;
        stalled := true;
        refresh ();
        false
    | Some r -> (
        let addr = owner r e in
        let l = link_of sl addr in
        let now = Unix.gettimeofday () in
        match l.l_sock with
        | Some _ ->
            send l e;
            true
        | None when now < l.l_retry_at ->
            record_err addr e;
            false
        | None -> (
            match Netio.connect ~wire:cfg.wire ~timeout_s:cfg.timeout_s addr with
            | Ok p ->
                l.l_sock <- Some (p.fd, p.dec);
                l.l_backoff <- backoff_init;
                send l e;
                true
            | Error _ ->
                l.l_retry_at <- now +. l.l_backoff;
                l.l_backoff <- Float.min (l.l_backoff *. 2.) backoff_cap;
                record_err addr e;
                refresh ();
                false))
  in
  let fresh_entry () =
    let op = pick_op cfg g in
    let key =
      match op.g_req with
      | Protocol.Get k | Protocol.Set (k, _) | Protocol.Del k | Protocol.Update (k, _)
      | Protocol.Scan (k, _) ->
          k
      | _ -> ""
    in
    { e_enq_us = Metrics.now_us ();
      e_t_off_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.);
      e_kind = op.g_kind;
      e_key = key;
      e_req = op.g_req;
      e_rmw = op.g_rmw;
      e_redirects = 0 }
  in
  (* Top the slot's window up to [pipeline] requests sent, re-routes and
     write legs first; [fresh] false only re-dispatches what is already
     owed.  Fast failures do not hold window space, so a dead node cannot
     starve a live one's traffic, but a slot is charged at most [pipeline]
     of them per round. *)
  let fill ~fresh sl =
    let failed = ref 0 in
    while
      sl.s_inflight < cfg.pipeline
      && !failed < cfg.pipeline
      && (not !stalled)
      && (fresh || not (Queue.is_empty sl.s_pending))
    do
      let e = match Queue.take_opt sl.s_pending with Some e -> e | None -> fresh_entry () in
      if not (dispatch sl e) then incr failed
    done
  in
  let flush_writes () =
    List.iter
      (fun l ->
        match l.l_sock with
        | Some (fd, _) when Buffer.length l.l_out > 0 -> (
            match Netio.write_all fd (Buffer.contents l.l_out) with
            | () -> Buffer.clear l.l_out
            | exception Unix.Unix_error _ -> fail_link l)
        | _ -> ())
      !links
  in
  (* Process every decoded frame; a malformed or unknown-id response means
     the stream is out of sync — the connection is lost. *)
  let rec drain l dec =
    match Protocol.Resp_decoder.next dec with
    | Protocol.Dec_more -> ()
    | Protocol.Dec_broken msg -> raise (Req_failed ("bad frame: " ^ msg))
    | Protocol.Dec_skip (_, msg) -> raise (Req_failed ("bad response: " ^ msg))
    | Protocol.Dec_frame (None, _) -> raise (Req_failed "untagged response on a pipelined stream")
    | Protocol.Dec_frame (Some id, resp) ->
        (match Hashtbl.find_opt l.l_inflight id with
        | None -> raise (Req_failed (Printf.sprintf "response for unknown id %d" id))
        | Some e -> (
            Hashtbl.remove l.l_inflight id;
            let sl = l.l_slot in
            sl.s_inflight <- sl.s_inflight - 1;
            match resp with
            | Protocol.Moved (shard, epoch, addr) ->
                cs.cs_redirects <- cs.cs_redirects + 1;
                Option.iter (fun r -> ignore (Routing.observe r ~shard ~epoch ~addr)) !routing;
                if e.e_redirects >= max_redirects then record_err l.l_addr e
                else Queue.add { e with e_redirects = e.e_redirects + 1 } sl.s_pending
            | Protocol.Error _ -> record_err l.l_addr e
            | _ when e.e_rmw ->
                (* Read leg landed: the write leg re-routes through the
                   pending queue (the shard may have moved meanwhile). *)
                Queue.add
                  { e with e_rmw = false; e_req = Protocol.Set (e.e_key, gen_value cfg g) }
                  sl.s_pending
            | _ -> record_ok e));
        drain l dec
  in
  let read_link l fd dec =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> fail_link l
    | n -> (
        l.l_last_rx <- Unix.gettimeofday ();
        Protocol.Resp_decoder.feed_bytes dec buf ~off:0 ~len:n;
        try drain l dec with Req_failed _ -> fail_link l)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> fail_link l
  in
  let read_phase ~timeout =
    let n = ref 0 in
    List.iter
      (fun l ->
        match l.l_sock with
        | Some (fd, _) ->
            !pfds.(!n) <- fd;
            !pflags.(!n) <- Netio.Poll.pollin;
            !plinks.(!n) <- l;
            incr n
        | None -> ())
      !links;
    let n = !n in
    if n = 0 then Thread.delay timeout
    else begin
      ignore (Netio.Poll.wait !pfds !pflags ~n ~timeout_ms:(int_of_float (timeout *. 1000.)));
      for i = 0 to n - 1 do
        if !pflags.(i) land (Netio.Poll.pollin lor Netio.Poll.pollerr) <> 0 then
          let l = !plinks.(i) in
          match l.l_sock with
          | Some (fd, dec) when fd == !pfds.(i) -> read_link l fd dec
          | _ -> ()
      done
    end;
    (* The timeout: a link with traffic in flight and no bytes for a whole
       [timeout_s] is as good as dead. *)
    let now = Unix.gettimeofday () in
    List.iter
      (fun l ->
        if l.l_sock <> None && Hashtbl.length l.l_inflight > 0 && now -. l.l_last_rx > cfg.timeout_s
        then fail_link l)
      !links
  in
  let in_flight () = Array.fold_left (fun n sl -> n + sl.s_inflight) 0 slots in
  (* Bootstrap: any seed that answers TOPO will do. *)
  while !routing = None && Unix.gettimeofday () < deadline do
    refresh ();
    if !routing = None then Thread.delay backoff_init
  done;
  let connected () = List.exists (fun l -> l.l_sock <> None) !links in
  while Unix.gettimeofday () < deadline do
    stalled := false;
    Array.iter (fill ~fresh:true) slots;
    flush_writes ();
    (* With anything in flight, waiting on its responses paces the round.
       A round that leaves nothing in flight (every draw failed fast, or
       there is no topology) refills at once while some node can take a
       request, since the next draws may route to it; only when none can
       does it sleep, so outage errors accrue at most [pipeline] per slot
       per 50 ms, like the timeouts they stand for. *)
    if in_flight () > 0 then read_phase ~timeout:0.02
    else if !stalled || not (connected ()) then Thread.delay 0.05
  done;
  (* Deadline: give responses already on the wire (and the re-routes and
     write legs they owe) one timeout to land, then charge whatever never
     came back as errors, each to the node it was bound for. *)
  let drain_deadline = Unix.gettimeofday () +. cfg.timeout_s in
  let owed () =
    in_flight () > 0 || Array.exists (fun sl -> not (Queue.is_empty sl.s_pending)) slots
  in
  while owed () && Unix.gettimeofday () < drain_deadline do
    stalled := false;
    Array.iter (fill ~fresh:false) slots;
    flush_writes ();
    read_phase ~timeout:0.02
  done;
  List.iter fail_link !links;
  Option.iter
    (fun r ->
      Array.iter (fun sl -> Queue.iter (fun e -> record_err (owner r e) e) sl.s_pending) slots)
    !routing

(* ------------------------------ aggregation ----------------------------- *)

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
  redirects : int;  (* MOVED replies followed *)
  expected_errors : int;  (* errors attributed to expect_dead nodes *)
  node_errors : (string * int) list;  (* addr -> errors *)
}

let bucket_of label ~window_s hist errors =
  { label;
    requests = Hist.count hist + errors;
    errors;
    window_s;
    p50_us = Hist.percentile hist 0.5;
    p99_us = Hist.percentile hist 0.99;
    max_us = Hist.max_value hist }

(* Aggregation runs entirely on fixed-layout histograms: per-connection data
   lands in per-phase/per-op histograms and every roll-up (op -> phase ->
   total) is an exact bucketwise merge, so percentiles are well-defined and
   independent of how samples were spread over connections — concatenating
   raw sample lists gave the same numbers but O(requests) space and a sort;
   this is O(buckets). *)
let summarize cfg ~wall_s (all : samples list) =
  let total = List.fold_left (fun acc s -> acc + s.len) 0 all in
  let errors = ref 0 in
  let marks = List.sort compare cfg.phase_marks in
  let phase_of_ms ms =
    let rec go i = function
      | [] -> i
      | m :: rest -> if float_of_int ms /. 1000. < m then i else go (i + 1) rest
    in
    go 0 marks
  in
  let n_phases = List.length marks + 1 in
  let phase_hist = Array.init n_phases (fun _ -> Hist.create ()) in
  let phase_errs = Array.make n_phases 0 in
  let op_hist = Array.init n_kinds (fun _ -> Hist.create ()) in
  let op_errs = Array.make n_kinds 0 in
  List.iter
    (fun s ->
      for i = 0 to s.len - 1 do
        let ph = phase_of_ms s.t_off_ms.(i) and k = s.kind.(i) in
        if s.ok.(i) then begin
          Hist.add phase_hist.(ph) s.lat_us.(i);
          Hist.add op_hist.(k) s.lat_us.(i)
        end
        else begin
          incr errors;
          phase_errs.(ph) <- phase_errs.(ph) + 1;
          op_errs.(k) <- op_errs.(k) + 1
        end
      done)
    all;
  let bounds =
    (* phase i spans [lo_i, hi_i) *)
    let lows = 0. :: marks in
    let highs = marks @ [ cfg.duration_s ] in
    List.combine lows highs
  in
  let phases =
    List.mapi
      (fun i (lo, hi) ->
        bucket_of
          (Printf.sprintf "%g-%gs" lo hi)
          ~window_s:(hi -. lo) phase_hist.(i) phase_errs.(i))
      bounds
  in
  let ops =
    List.filteri (fun i _ -> Hist.count op_hist.(i) > 0 || op_errs.(i) > 0) op_kinds
    |> List.map (fun kind ->
           let i = kind_index kind in
           bucket_of kind ~window_s:wall_s op_hist.(i) op_errs.(i))
  in
  let all_hist = Hist.merge (Array.to_list phase_hist) in
  { requests = total;
    errors = !errors;
    wall_s;
    throughput_rps = (if wall_s > 0. then float_of_int total /. wall_s else 0.);
    p50_us = Hist.percentile all_hist 0.5;
    p99_us = Hist.percentile all_hist 0.99;
    max_us = Hist.max_value all_hist;
    phases;
    ops;
    redirects = 0;
    expected_errors = 0;
    node_errors = [] }

let run cfg =
  List.iter
    (fun (name, v) ->
      if v < 1 then invalid_arg (Printf.sprintf "Loadgen.run: %s must be positive" name))
    [ ("connections", cfg.connections);
      ("conns_per_client", cfg.conns_per_client);
      ("pipeline", cfg.pipeline);
      ("keys", cfg.keys) ];
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t0 = Unix.gettimeofday () in
  let samples = List.init cfg.connections (fun _ -> samples_create ()) in
  let cstats =
    List.init cfg.connections (fun _ ->
        { cs_redirects = 0; cs_expected = 0; cs_node_errors = Hashtbl.create 8 })
  in
  let domains =
    List.mapi
      (fun conn_id (s, cs) -> Domain.spawn (fun () -> client_loop cfg ~t0 ~conn_id s cs))
      (List.combine samples cstats)
  in
  List.iter Domain.join domains;
  let wall_s = Unix.gettimeofday () -. t0 in
  let node_errors = Hashtbl.create 8 in
  List.iter
    (fun cs ->
      Hashtbl.iter
        (fun addr r ->
          match Hashtbl.find_opt node_errors addr with
          | Some acc -> acc := !acc + !r
          | None -> Hashtbl.add node_errors addr (ref !r))
        cs.cs_node_errors)
    cstats;
  { (summarize cfg ~wall_s samples) with
    redirects = List.fold_left (fun acc cs -> acc + cs.cs_redirects) 0 cstats;
    expected_errors = List.fold_left (fun acc cs -> acc + cs.cs_expected) 0 cstats;
    node_errors =
      List.sort compare (Hashtbl.fold (fun a r acc -> (a, !r) :: acc) node_errors []) }

(* ------------------------------ reporting ------------------------------- *)

let bucket_json b =
  Json.Obj
    [ ("label", Json.String b.label);
      ("requests", Json.Int b.requests);
      ("errors", Json.Int b.errors);
      ("throughput_rps",
       Json.Float (if b.window_s > 0. then float_of_int b.requests /. b.window_s else 0.));
      ("p50_us", Json.Int b.p50_us);
      ("p99_us", Json.Int b.p99_us);
      ("max_us", Json.Int b.max_us) ]

let to_json cfg s =
  Json.Obj
    [ ("schema", Json.String "kexclusion-serve/v6");
      ("git_rev", Json.String (Provenance.git_rev ()));
      ("hostname", Json.String (Provenance.hostname ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "config",
        Json.Obj
          [ ("host", Json.String cfg.host);
            ("port", Json.Int cfg.port);
            ("connections", Json.Int cfg.connections);
            ("duration_s", Json.Float cfg.duration_s);
            ("mix", Json.String (mix_to_string cfg.mix));
            ("keys", Json.Int cfg.keys);
            ("dist", Json.String (Keydist.dist_name cfg.dist));
            ("value_size", Json.Int cfg.value_size);
            ("value_size_max", Json.Int (max cfg.value_size cfg.value_size_max));
            ("scan_len", Json.Int cfg.scan_len);
            ("wire", Json.String (Protocol.wire_name cfg.wire));
            ("seed", Json.Int cfg.seed);
            ("pipeline", Json.Int cfg.pipeline);
            ("conns_per_client", Json.Int cfg.conns_per_client);
            ("cluster", Json.List (List.map (fun a -> Json.String a) cfg.cluster));
            ("expect_dead", Json.List (List.map (fun a -> Json.String a) cfg.expect_dead)) ] );
      ( "totals",
        Json.Obj
          [ ("requests", Json.Int s.requests);
            ("errors", Json.Int s.errors);
            ("expected_errors", Json.Int s.expected_errors);
            ("redirects", Json.Int s.redirects);
            ("wall_s", Json.Float s.wall_s);
            ("throughput_rps", Json.Float s.throughput_rps);
            ( "latency_us",
              Json.Obj
                [ ("p50", Json.Int s.p50_us); ("p99", Json.Int s.p99_us);
                  ("max", Json.Int s.max_us) ] ) ] );
      ("phases", Json.List (List.map bucket_json s.phases));
      ("ops", Json.List (List.map bucket_json s.ops));
      ( "node_errors",
        Json.List
          (List.map
             (fun (addr, n) ->
               Json.Obj [ ("addr", Json.String addr); ("errors", Json.Int n) ])
             s.node_errors) ) ]

let pp_summary ppf s =
  Format.fprintf ppf "requests   : %d (%.0f req/s, %d errors)@." s.requests s.throughput_rps
    s.errors;
  Format.fprintf ppf "latency    : p50 %d us, p99 %d us, max %d us@." s.p50_us s.p99_us s.max_us;
  if s.redirects > 0 || s.expected_errors > 0 then
    Format.fprintf ppf "cluster    : %d redirects followed, %d expected errors@." s.redirects
      s.expected_errors;
  List.iter
    (fun (addr, n) -> Format.fprintf ppf "  node %-21s %6d errors@." addr n)
    s.node_errors;
  if List.length s.phases > 1 then
    List.iter
      (fun b ->
        Format.fprintf ppf "  phase %-10s %6d req %5d err  %8.0f req/s  p50 %6d  p99 %6d us@."
          b.label b.requests b.errors
          (if b.window_s > 0. then float_of_int b.requests /. b.window_s else 0.)
          b.p50_us b.p99_us)
      s.phases;
  List.iter
    (fun b ->
      Format.fprintf ppf "  op %-8s %9d req %5d err  p50 %6d  p99 %6d  max %6d us@." b.label
        b.requests b.errors b.p50_us b.p99_us b.max_us)
    s.ops
