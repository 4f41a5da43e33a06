(** Signal-robust socket I/O shared by the server and load generator.
    Chaos kills raise signal traffic; a partial or [EINTR]/[EAGAIN]-failed
    write mid-frame would desync the length-prefixed stream, so writes here
    always either land the whole buffer or raise a genuine error. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the entire string: short writes continue from the current offset,
    [EINTR] retries, [EAGAIN]/[EWOULDBLOCK] waits for writability (send
    timeouts / nonblocking fds) and retries.  Raises on real errors
    ([EPIPE], [ECONNRESET], ...). *)

val read : ?deadline:float -> Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.read] retrying [EINTR], and — symmetric with {!write_all} —
    [EAGAIN]/[EWOULDBLOCK] (receive timeouts / nonblocking fds) after
    waiting for readability in one open-ended select (no fixed retry
    slice).  [~deadline] is an absolute [Unix.gettimeofday] instant: once
    it passes, the would-block error is re-raised instead of waiting, so
    callers get a bounded read without per-fd timeout plumbing. *)

(** {2 Blocking request/response}

    One connection, one untagged request in flight: the load generator's
    TOPO bootstrap and the node-to-node migration leg. *)

type peer = {
  fd : Unix.file_descr;
  wire : Protocol.wire;
  dec : Protocol.Resp_decoder.t;  (** responses on [wire] *)
  timeout_s : float;
}

val connect : wire:Protocol.wire -> timeout_s:float -> string -> (peer, string) result
(** [connect ~wire ~timeout_s "host:port"] opens a TCP connection with
    [SO_RCVTIMEO] [timeout_s] and [TCP_NODELAY].  A bad address or a
    refused connect is an [Error]. *)

val call : peer -> Protocol.request -> (Protocol.response, string) result
(** Send one untagged request with {!write_all} and block for its
    response, reading through {!read} with a deadline [timeout_s] away:
    [EINTR] retries, and a silent peer, a closed connection, a malformed
    response or a socket error is an [Error]. *)

val close : peer -> unit

val read_nb :
  Unix.file_descr -> Bytes.t -> int -> int -> [ `Data of int | `Eof | `Would_block ]
(** Single nonblocking read attempt ([EINTR] retried): [`Data n] for [n]
    fresh bytes, [`Eof] on peer close, [`Would_block] when the socket has
    nothing — the event loop, not this call, waits for readiness. *)

val write_nb : Unix.file_descr -> Bytes.t -> int -> int -> int
(** Single nonblocking write attempt ([EINTR] retried): bytes accepted by
    the kernel, [0] when the socket would block.  Short counts are the
    caller's carry-over to the next writable cycle.  Raises on real errors
    ([EPIPE], [ECONNRESET], ...). *)

(** Direct binding to poll(2), which [Unix] lacks: flat parallel arrays of
    fds and event masks, reusable across event-loop cycles without
    allocation, and none of select's [FD_SETSIZE] ceiling. *)
module Poll : sig
  val pollin : int
  (** Event/revent bit: readable (POLLIN). *)

  val pollout : int
  (** Event/revent bit: writable (POLLOUT). *)

  val pollerr : int
  (** Revent bit: error/hangup/invalid (POLLERR | POLLHUP | POLLNVAL). *)

  val wait : Unix.file_descr array -> int array -> n:int -> timeout_ms:int -> int
  (** [wait fds flags ~n ~timeout_ms] polls the first [n] entries of [fds],
      reading requested-event masks from [flags] and overwriting each entry
      with the returned revents mask.  [timeout_ms < 0] waits indefinitely.
      Returns the number of ready fds; [EINTR] surfaces as [0] with all
      revents cleared.  Raises [Failure] only on programmer error
      ([EINVAL]/[EFAULT]/[ENOMEM]). *)
end
