(** The reactor I/O plane: poll(2) event-loop domains multiplexing
    non-blocking connections — the server's only connection plane.

    Each reactor is one domain running one loop; it owns its connections'
    decode/encode state and their bookkeeping outright, so that state
    needs no locks.  Producers (admission workers, the acceptor, helper
    threads) reach the loop only through {!post_write}/{!add}/{!sever}: a
    lock-free mailbox push plus a deduplicated self-pipe wakeup — one
    wakeup per drained batch, not one per response.  The module is
    manifest-declared atomic-only: no [Mutex] or [Condition] anywhere.

    A connection that hung up closes once its output is flushed and it is
    owed no reply: the loop counts the replies owed with {!owe}, and each
    {!post_write} says how many of them its bytes carry.

    Output is bounded by policy: past [out_hwm] unsent bytes a connection
    leaves the read set (backpressure), and if the peer then accepts
    nothing for [slow_drain_s] seconds it is dropped.  Handlers run on the
    loop thread; a handler that blocks (e.g. on a migration fence) stalls
    every connection on that reactor, so anything slow must be handed to a
    worker or helper thread and its answer posted back. *)

(** The lock-free MPSC mailbox used for producer→reactor delivery: CAS-cons
    push (any thread), single-consumer [drain] returning FIFO order.
    Exposed for the qcheck interleaving suite and the microbench. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> unit
  (** Lock-free, safe from any thread or domain. *)

  val drain : 'a t -> 'a list
  (** Take everything currently queued, oldest first.  Single consumer. *)
end

type 'a t
(** A reactor: one event-loop domain plus its mailbox and wakeup pipe.
    ['a] is the per-connection user state (the server's conn record). *)

type 'a conn
(** A connection owned by a reactor's loop. *)

val create :
  ?out_hwm:int ->
  ?slow_drain_s:float ->
  ?log:(string -> unit) ->
  id:int ->
  ('a conn -> Bytes.t -> int -> bool) ->
  'a t
(** [create ~id on_data]: [on_data c buf len] runs on the loop thread with
    the first [len] bytes of the scratch buffer as [c]'s fresh input, and
    returns [false] to hang up (after a final drain of queued output).
    The buffer is reused; copy what you keep.  [out_hwm] — unsent-output
    watermark that pauses reads (default 256 KiB); [slow_drain_s] — how
    long a paused connection may make no progress before it is dropped.
    A connection that hung up is force-closed if it has not drained
    within 5 s. *)

val start : 'a t -> unit
(** Spawn the loop domain. *)

val stop : ?grace_s:float -> 'a t -> unit
(** Ask the loop to drain every connection (bounded by [grace_s]), join
    the domain, and release the wakeup pipe. *)

val add : 'a t -> Unix.file_descr -> 'a -> unit
(** Hand a freshly-accepted socket to the reactor (any thread).  The
    reactor sets it non-blocking and owns it from here on. *)

val sever : 'a t -> unit
(** Crash the plane (any thread): the loop closes every attached
    connection with nothing drained, and closes on arrival every one
    added after this.  The loop keeps running until {!stop}. *)

val owe : 'a conn -> int -> unit
(** Loop thread only (inside [on_data]): [n] more replies will come
    through {!post_write}; a negative [n] takes back that many, answered
    on the loop after all. *)

val post_write : ?replies:int -> 'a conn -> string -> unit
(** Queue response bytes for delivery (any thread); they answer [replies]
    (default 0) of the replies the connection is owed, which the loop
    takes off the count as it appends the bytes.  Dropped once the
    connection is closed. *)

val user : 'a conn -> 'a

val append_string : 'a conn -> string -> unit
(** Loop thread only (inside a handler): queue bytes without a mailbox
    round-trip — the inline fast path for wait-free reads. *)

val append_buffer : 'a conn -> Buffer.t -> unit
(** Loop thread only: [append_string] from a [Buffer] without copying
    through an intermediate string. *)

val wakeups : 'a t -> int
(** Self-pipe bytes written — wakeups actually paid, after dedup. *)

val posts : 'a t -> int
(** Mailbox messages pushed — the load the dedup is amortizing. *)

val live : 'a t -> int
(** Connections attached and not yet closed (any thread). *)
