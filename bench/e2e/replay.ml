(* The traced replay: a model of one request's path through [kexd serve],
   built from outside the server out of the same public calls it makes, in
   its layout — one reactor domain (the caller), 4 worker domains draining
   one [Wqueue] in batches of <= 32, a [Kv_store] with n = 4 and k = 2,
   and completions returned through a [Reactor.Mailbox] with one
   deduplicated wakeup per quiet period.  It replays the workload's first
   requests, regenerated from the same seed, closed-loop with at most 64
   mutations outstanding (2 connections x window 32).

   Each call is wrapped in a span (name, start, end, parent, request id).
   A request's root span runs from the start of its decode to its reply
   being ready on the reactor: after the inline encode for a GET, after
   the mailbox drain for a mutation.  Batch spans (apply, encode) are
   charged to every item of the batch.  All spans are recorded on the
   reactor domain — worker-side stamps ride in the completion message — so
   the span store needs no synchronisation. *)

module Protocol = Kex_service.Protocol
module Kv_store = Kex_resilient.Kv_store
module Wqueue = Kex_service.Wqueue
module Mailbox = Kex_service.Reactor.Mailbox

let now_ns = Server_proc.now_ns

let span_names = [| "request"; "decode"; "read"; "push"; "ring_wait"; "apply_batch"; "encode"; "mailbox" |]
let s_request = 0
let s_decode = 1
let s_read = 2
let s_push = 3
let s_wait = 4
let s_apply = 5
let s_encode = 6
let s_mailbox = 7
let workers = 4
let max_batch = 32
let max_outstanding = Workload.connections * 32

(* ------------------------------- span store ------------------------------ *)

(* Flat rows of (name, request id, start ns, end ns).  A root span is
   followed by its children, so a span's parent is the nearest root before
   it. *)
type spans = { mutable rows : int array; mutable len : int }

let row_width = 4

let add sp name rid t0 t1 =
  if sp.len + row_width > Array.length sp.rows then begin
    let bigger = Array.make (2 * Array.length sp.rows) 0 in
    Array.blit sp.rows 0 bigger 0 sp.len;
    sp.rows <- bigger
  end;
  sp.rows.(sp.len) <- name;
  sp.rows.(sp.len + 1) <- rid;
  sp.rows.(sp.len + 2) <- t0;
  sp.rows.(sp.len + 3) <- t1;
  sp.len <- sp.len + row_width

(* Self time per span name, summed over requests.  Children are clipped
   to the root and to each other in start order, so self times partition
   each root's duration exactly. *)
let self_times sp =
  let self = Array.make (Array.length span_names) 0 in
  let total = ref 0 in
  let i = ref 0 in
  while !i < sp.len do
    let r0 = sp.rows.(!i + 2) and r1 = sp.rows.(!i + 3) in
    total := !total + (r1 - r0);
    let j = ref (!i + row_width) in
    let kids = ref [] in
    while !j < sp.len && sp.rows.(!j) <> s_request do
      kids := (sp.rows.(!j + 2), sp.rows.(!j + 3), sp.rows.(!j)) :: !kids;
      j := !j + row_width
    done;
    let cursor = ref r0 and covered = ref 0 in
    List.iter
      (fun (s, e, name) ->
        let s = max s !cursor and e = min e r1 in
        if e > s then begin
          self.(name) <- self.(name) + (e - s);
          covered := !covered + (e - s);
          cursor := e
        end)
      (List.sort compare !kids);
    self.(s_request) <- self.(s_request) + (r1 - r0 - !covered);
    i := !j
  done;
  (self, !total)

let write_spans sp file =
  Out_channel.with_open_text file (fun oc ->
      let root = ref (-1) in
      for id = 0 to (sp.len / row_width) - 1 do
        let o = id * row_width in
        let name = sp.rows.(o) in
        if name = s_request then root := id;
        Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"rid\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n"
          id span_names.(name) sp.rows.(o + 1) sp.rows.(o + 2) sp.rows.(o + 3)
          (if name = s_request then -1 else !root)
      done)

(* ----------------------------- layer counters ---------------------------- *)

(* Per-call totals at the same boundaries as the spans: [calls.(s)] calls
   of span kind [s] took [ns.(s)] in all; [units.(s)] counts what they
   processed (responses encoded, items applied). *)
type counters = { calls : int array; ns : int array; units : int array }

let counters () =
  let z () = Array.make (Array.length span_names) 0 in
  { calls = z (); ns = z (); units = z () }

let count c s ~units t0 t1 =
  c.calls.(s) <- c.calls.(s) + 1;
  c.ns.(s) <- c.ns.(s) + (t1 - t0);
  c.units.(s) <- c.units.(s) + units

(* -------------------------------- the model ------------------------------ *)

type item = { rid : int; op : Kv_store.op; tag : int option }

(* A worker's completion: the batch's request ids and its stamps. *)
type done_msg = {
  rids : int list;
  t_pop : int;
  t_applied : int;
  t_encoded : int;
  t_post : int;
  reply : string;  (** the bytes the reactor appends to the connection *)
}

let resp_of_result : Kv_store.result -> Protocol.response = function
  | Kv_store.Unit -> Protocol.Ok
  | Kv_store.Value v -> Protocol.Value v
  | Kv_store.Existed b -> Protocol.Deleted b
  | Kv_store.New_value v -> Protocol.Int v

let preload store (w : Workload.t) ~seed =
  let rng = Random.State.make [| seed; -1 |] in
  let rec go i =
    if i < w.keys then begin
      let n = min 512 (w.keys - i) in
      let ops =
        List.init n (fun j ->
            Kv_store.Set (Workload.key_of_index (i + j), Workload.value_for (i + j) rng))
      in
      ignore (Kv_store.perform_batch store ~pid:0 ops);
      go (i + n)
    end
  in
  go 0

(* The workload's first [n] requests as client frames, alternating between
   the two connections' streams. *)
let frames (w : Workload.t) ~seed ~n =
  let gens = Array.init Workload.connections (fun conn -> Workload.gen w ~seed ~conn) in
  Array.init n (fun i ->
      let req, _ = Workload.next gens.(i mod Workload.connections) in
      let b = Buffer.create 48 in
      Protocol.encode_request_wire b w.wire ~id:(Some (i mod 32)) req;
      Buffer.contents b)

type result = { wall_ns : int; spans : spans; counters : counters }

let run ~traced store (w : Workload.t) frames =
  let stamp () = if traced then now_ns () else 0 in
  let n = Array.length frames in
  let q = Wqueue.create () in
  let mb = Mailbox.create () in
  let wake = Semaphore.Binary.make false in
  let wake_pending = Atomic.make false in
  let worker pid () =
    let out = Buffer.create 1024 in
    let rec loop () =
      match Wqueue.pop_batch q ~max:max_batch with
      | [] -> ()
      | items ->
          let t_pop = stamp () in
          let results = Kv_store.perform_batch store ~pid (List.map (fun it -> it.op) items) in
          let t_applied = stamp () in
          Buffer.clear out;
          List.iter2
            (fun it r -> Protocol.encode_response_wire out w.wire ~id:it.tag (resp_of_result r))
            items results;
          let t_encoded = stamp () in
          let reply = Buffer.contents out in
          Mailbox.push mb
            { rids = List.map (fun it -> it.rid) items; t_pop; t_applied; t_encoded;
              t_post = stamp (); reply };
          if not (Atomic.exchange wake_pending true) then Semaphore.Binary.release wake;
          loop ()
    in
    loop ()
  in
  let domains = List.init workers (fun pid -> Domain.spawn (worker pid)) in
  let sp = { rows = Array.make (if traced then 1 lsl 20 else row_width) 0; len = 0 } in
  let ct = counters () in
  let decs = Array.init Workload.connections (fun _ -> Protocol.Req_decoder.create ()) in
  let scratch = Buffer.create 4096 in
  let t_start = Array.make n 0 and t_decoded = Array.make n 0 and t_pushed = Array.make n 0 in
  let next = ref 0 and outstanding = ref 0 and finished = ref 0 in
  let decode rid =
    let t0 = stamp () in
    let dec = decs.(rid mod Workload.connections) in
    Protocol.Req_decoder.feed dec frames.(rid);
    match Protocol.Req_decoder.next dec with
    | Protocol.Dec_frame (tag, req) ->
        let t1 = stamp () in
        if traced then count ct s_decode ~units:1 t0 t1;
        (t0, t1, tag, req)
    | _ -> failwith "replay: undecodable frame"
  in
  let push rid t0 t1 tag op =
    ignore (Wqueue.push q { rid; op; tag });
    let t2 = stamp () in
    incr outstanding;
    if traced then begin
      count ct s_push ~units:1 t1 t2;
      t_start.(rid) <- t0;
      t_decoded.(rid) <- t1;
      t_pushed.(rid) <- t2
    end
  in
  let admit rid =
    let t0, t1, tag, req = decode rid in
    match req with
    | Protocol.Get key ->
        let v = Kv_store.read store ~key in
        let t2 = stamp () in
        Buffer.clear scratch;
        Protocol.encode_response_wire scratch w.wire ~id:tag (Protocol.Value v);
        let t3 = stamp () in
        incr finished;
        if traced then begin
          count ct s_read ~units:1 t1 t2;
          count ct s_encode ~units:1 t2 t3;
          add sp s_request rid t0 t3;
          add sp s_decode rid t0 t1;
          add sp s_read rid t1 t2;
          add sp s_encode rid t2 t3
        end
    | Protocol.Set (key, v) -> push rid t0 t1 tag (Kv_store.Set (key, v))
    | Protocol.Update (key, d) -> push rid t0 t1 tag (Kv_store.Fetch_add (key, d))
    | _ -> failwith "replay: request outside the workload's alphabet"
  in
  let deliver m =
    let t_drained = stamp () in
    let items = List.length m.rids in
    outstanding := !outstanding - items;
    finished := !finished + items;
    if traced then begin
      count ct s_apply ~units:items m.t_pop m.t_applied;
      count ct s_encode ~units:items m.t_applied m.t_encoded;
      count ct s_mailbox ~units:items m.t_post t_drained;
      List.iter
        (fun rid ->
          count ct s_wait ~units:1 t_pushed.(rid) m.t_pop;
          add sp s_request rid t_start.(rid) t_drained;
          add sp s_decode rid t_start.(rid) t_decoded.(rid);
          add sp s_push rid t_decoded.(rid) t_pushed.(rid);
          add sp s_wait rid t_pushed.(rid) m.t_pop;
          add sp s_apply rid m.t_pop m.t_applied;
          add sp s_encode rid m.t_applied m.t_encoded;
          add sp s_mailbox rid m.t_post t_drained)
        m.rids
    end
  in
  let t_begin = now_ns () in
  while !finished < n do
    (* One socket read's worth of frames, then the completions. *)
    let budget = ref max_batch in
    while !budget > 0 && !next < n && !outstanding < max_outstanding do
      admit !next;
      incr next;
      decr budget
    done;
    Atomic.set wake_pending false;
    match Mailbox.drain mb with
    | [] -> if !next >= n || !outstanding >= max_outstanding then Semaphore.Binary.acquire wake
    | msgs -> List.iter deliver msgs
  done;
  let wall_ns = now_ns () - t_begin in
  ignore (Wqueue.close q);
  List.iter Domain.join domains;
  { wall_ns; spans = sp; counters = ct }
