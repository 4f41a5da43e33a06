(* kexbench's own load client: one connection per client domain, id-tagged
   requests in a window, responses matched by id.  It uses only
   [Protocol]'s public codec, so changes to [Loadgen] cannot move it.

   Every response is checked by [Workload.check].  An ERR reply, a timeout
   or a dropped connection is a failed request: it is recorded as infinite
   latency and, for a dropped connection, every request still in flight
   fails with it. *)

module Protocol = Kex_service.Protocol

let now_ns = Server_proc.now_ns

type tally = {
  lat : Hist.t;  (** ns, from send (closed loop) or from due time (open loop) *)
  lag : Hist.t;  (** open loop: ns each request was sent after it was due *)
  mutable ok : int;
  mutable failed : int;
  mutable wrong : string list;  (** oracle mismatches (first few) *)
  incs : int array;  (** acknowledged increments per counter key *)
  mutable last_ns : int;  (** when the last response arrived *)
}

let tally () =
  { lat = Hist.create (); lag = Hist.create (); ok = 0; failed = 0; wrong = [];
    incs = Array.make Workload.counters 0; last_ns = 0 }

let merge ts =
  let t = tally () in
  List.iter
    (fun s ->
      Hist.merge_into t.lat s.lat;
      Hist.merge_into t.lag s.lag;
      t.ok <- t.ok + s.ok;
      t.failed <- t.failed + s.failed;
      t.wrong <- t.wrong @ s.wrong;
      Array.iteri (fun i n -> t.incs.(i) <- t.incs.(i) + n) s.incs;
      t.last_ns <- max t.last_ns s.last_ns)
    ts;
  t

let note_wrong t msg = if List.length t.wrong < 5 then t.wrong <- t.wrong @ [ msg ]

(* A connection and its in-flight slots; the slot index is the request id. *)
type conn = {
  fd : Unix.file_descr;
  wire : Protocol.wire;
  dec : Protocol.Resp_decoder.t;
  buf : Bytes.t;
  out : Buffer.t;
  s_req : Protocol.request array;
  s_target : Workload.target array;
  s_t0 : int array;
  free : int array;  (** stack of free slot ids *)
  mutable nfree : int;
}

let timeout_s = 5.

let connect ~port ~wire ~slots =
  let fd = Server_proc.connect ~port in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
  { fd; wire; dec = Protocol.Resp_decoder.create wire; buf = Bytes.create 65536; out = Buffer.create 4096;
    s_req = Array.make slots Protocol.Ping; s_target = Array.make slots (Workload.Counter 0);
    s_t0 = Array.make slots 0; free = Array.init slots Fun.id; nfree = slots }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let inflight c = Array.length c.free - c.nfree

exception Lost of string

let send c (req, target) ~t0 =
  c.nfree <- c.nfree - 1;
  let id = c.free.(c.nfree) in
  c.s_req.(id) <- req;
  c.s_target.(id) <- target;
  c.s_t0.(id) <- t0;
  Protocol.encode_request_wire c.out c.wire ~id:(Some id) req

let flush c =
  if Buffer.length c.out > 0 then begin
    (try Kex_service.Netio.write_all c.fd (Buffer.contents c.out)
     with Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e)));
    Buffer.clear c.out
  end

let complete c t id resp =
  let now = now_ns () in
  c.free.(c.nfree) <- id;
  c.nfree <- c.nfree + 1;
  t.last_ns <- now;
  let answered () =
    t.ok <- t.ok + 1;
    Hist.record t.lat (now - c.s_t0.(id))
  in
  match Workload.check c.s_req.(id) c.s_target.(id) resp with
  | Workload.Acked -> answered ()
  | Workload.Incremented k ->
      t.incs.(k) <- t.incs.(k) + 1;
      answered ()
  | Workload.Refused ->
      t.failed <- t.failed + 1;
      Hist.record_inf t.lat
  | Workload.Wrong msg ->
      note_wrong t msg;
      answered ()

(* One blocking read (bounded by the receive timeout), then every complete
   response in it. *)
let receive c t =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> raise (Lost "connection closed by the server")
  | n ->
      Protocol.Resp_decoder.feed_bytes c.dec c.buf ~off:0 ~len:n;
      let rec drain () =
        match Protocol.Resp_decoder.next c.dec with
        | Protocol.Dec_more -> ()
        | Protocol.Dec_frame (Some id, resp) when id < Array.length c.s_t0 ->
            complete c t id resp;
            drain ()
        | Protocol.Dec_frame _ | Protocol.Dec_skip _ | Protocol.Dec_broken _ ->
            raise (Lost "malformed or unmatched response")
      in
      drain ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise (Lost "timeout")
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> raise (Lost (Unix.error_message e))

(* Everything still in flight on a lost connection fails. *)
let fail_inflight c t msg =
  for _ = 1 to inflight c do
    t.failed <- t.failed + 1;
    Hist.record_inf t.lat
  done;
  note_wrong t ("connection lost: " ^ msg);
  c.nfree <- Array.length c.free

(* Closed loop: keep every slot busy until [until_ns] or until [next] runs
   dry, then drain. *)
let closed c t ~next ~until_ns =
  let more = ref true in
  try
    while (!more && now_ns () < until_ns) || inflight c > 0 do
      if !more && now_ns () < until_ns then begin
        while !more && c.nfree > 0 do
          match next () with Some r -> send c r ~t0:(now_ns ()) | None -> more := false
        done;
        flush c
      end;
      if inflight c > 0 then receive c t
    done
  with Lost msg -> fail_inflight c t msg

(* Open loop: request [i] is due at [start_ns + i * interval] whether or
   not earlier ones have returned (up to [Workload.paced_max_inflight]),
   and its latency runs from when it was due. *)
let paced c t ~next ~rate ~start_ns ~until_ns =
  let interval = 1e9 /. rate in
  let i = ref 0 in
  let due () = start_ns + int_of_float (float !i *. interval) in
  try
    while due () < until_ns || inflight c > 0 do
      let now = now_ns () in
      while due () <= now && due () < until_ns && c.nfree > 0 do
        Hist.record t.lag (now - due ());
        send c (next ()) ~t0:(due ());
        incr i
      done;
      flush c;
      (* Sleep until the next request is due, or — with nothing to send —
         until a response arrives. *)
      let replies_only = not (due () < until_ns && c.nfree > 0) in
      let wait_s = if replies_only then timeout_s else float (due () - now_ns ()) /. 1e9 in
      if inflight c > 0 && (replies_only || wait_s > 0.) then
        match Unix.select [ c.fd ] [] [] wait_s with
        | [], _, _ -> if replies_only then raise (Lost "timeout")
        | _ -> receive c t
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      else if (not replies_only) && wait_s > 0. then Unix.sleepf wait_s
    done
  with Lost msg -> fail_inflight c t msg
