(* Signal-robust socket writes, shared by the server and the load
   generator.  Chaos schedules raise signal traffic, and a [Unix.write] on a
   blocking socket can then (a) fail with [EINTR] before moving any bytes,
   (b) return a short count, or (c) — when the fd carries a send timeout or
   O_NONBLOCK — fail with [EAGAIN]/[EWOULDBLOCK].  A caller that treats any
   of those as fatal desyncs the frame stream mid-write: the peer sees a
   length header whose payload never arrives.  So all three cases retry
   here, from the current offset, until the buffer is fully on the wire. *)

let write_all fd s =
  let len = String.length s in
  let bytes = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* Wait until the socket drains; select itself may be interrupted. *)
          (try ignore (Unix.select [] [ fd ] [] 1.0) with
          | Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off
  in
  go 0

(* [Unix.read] with the same robustness as [write_all]: EINTR retries, and
   EAGAIN/EWOULDBLOCK (a receive timeout or nonblocking fd) waits for
   readability and retries.  The asymmetry used to be a real bug — a
   SO_RCVTIMEO expiry inside the server's frame reader surfaced as a fatal
   error and tore down the connection mid-stream, where the matching write
   path would have quietly waited and resumed.

   Without [?deadline] the wait is a single open-ended select rather than
   the historical fixed 1s slice-and-retry, so a shutdown that closes the
   peer no longer quantizes to whole seconds.  With [~deadline] (an
   absolute [Unix.gettimeofday] instant) the wait is bounded: once the
   deadline passes, the EAGAIN that interrupted us is re-raised so the
   caller sees an ordinary would-block surface. *)
let rec read ?deadline fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ?deadline fd buf off len
  | exception (Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) as e) ->
      let timeout =
        match deadline with
        | None -> -1.0 (* negative select timeout = wait indefinitely *)
        | Some d ->
            let remaining = d -. Unix.gettimeofday () in
            if remaining <= 0. then raise e else remaining
      in
      (try ignore (Unix.select [ fd ] [] [] timeout) with
      | Unix.Unix_error (Unix.EINTR, _, _) -> ());
      read ?deadline fd buf off len

(* A blocking request/response connection: the load generator's TOPO
   bootstrap and the migration leg between nodes.  The receive timeout
   bounds each read, TCP_NODELAY keeps one small frame from waiting on
   Nagle, and [dec] holds whatever the peer sends past one response. *)
type peer = {
  fd : Unix.file_descr;
  wire : Protocol.wire;
  dec : Protocol.Resp_decoder.t;
  timeout_s : float;
}

let connect ~wire ~timeout_s addr =
  match Kex_cluster.Routing.parse_addr addr with
  | Error _ as e -> e
  | Ok (host, port) -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let refused why =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "connect %s: %s" addr why)
      in
      match
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
           Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
      with
      | () -> Ok { fd; wire; dec = Protocol.Resp_decoder.create wire; timeout_s }
      | exception Unix.Unix_error (e, _, _) -> refused (Unix.error_message e)
      | exception Failure msg -> refused msg (* a host that is not an IP address *))

let close p = try Unix.close p.fd with Unix.Unix_error _ -> ()

(* Send one untagged request and block for its response.  Reads go through
   [read ~deadline], so EINTR retries and a silent peer is an [Error] once
   [timeout_s] has passed. *)
let call p req =
  let out = Buffer.create 64 in
  Protocol.encode_request_wire out p.wire ~id:None req;
  let deadline = Unix.gettimeofday () +. p.timeout_s in
  let buf = Bytes.create 8192 in
  let rec await () =
    match Protocol.Resp_decoder.next p.dec with
    | Protocol.Dec_frame (_, resp) -> Ok resp
    | Protocol.Dec_skip (_, msg) -> Error ("bad response: " ^ msg)
    | Protocol.Dec_broken msg -> Error ("bad frame: " ^ msg)
    | Protocol.Dec_more -> (
        match read ~deadline p.fd buf 0 (Bytes.length buf) with
        | 0 -> Error "connection closed"
        | n ->
            Protocol.Resp_decoder.feed_bytes p.dec buf ~off:0 ~len:n;
            await ())
  in
  match
    write_all p.fd (Buffer.contents out);
    await ()
  with
  | r -> r
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Error "timeout"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* Nonblocking single-shot variants for reactor loops: readiness is the
   event loop's job, so would-block returns instead of waiting. *)
let rec read_nb fd buf off len =
  match Unix.read fd buf off len with
  | 0 -> `Eof
  | n -> `Data n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_nb fd buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Would_block

let rec write_nb fd buf off len =
  match Unix.write fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_nb fd buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0

(* poll(2), which [Unix] does not bind.  A reactor watching hundreds of
   sockets cannot afford select's FD_SETSIZE ceiling or its O(highest-fd)
   kernel scan per call; poll is flat arrays in, flat arrays out, which is
   also what lets the OCaml side reuse its buffers across loop iterations
   with zero per-cycle allocation. *)
module Poll = struct
  let pollin = 1
  let pollout = 2
  let pollerr = 4

  external poll_fds : Unix.file_descr array -> int array -> int -> int -> int
    = "kex_service_poll"

  let wait fds flags ~n ~timeout_ms = poll_fds fds flags n timeout_ms
end
