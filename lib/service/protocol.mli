(** The kexd wire protocol — one request/response grammar over two
    framings, with a pure codec: encoders append to a buffer and decoders
    deframe fed byte chunks, so everything here is testable without
    sockets.  Each message's segments (strings, integers, 0/1 flags) are
    stated once; a wire supplies only how a segment is spelled and the
    frame around the body.

    {b v1 (text)}: frame is [<payload length in decimal>'\n'<payload>],
    payload [KEYWORD] then each segment after a space: integers in
    decimal, strings netstring-style ([<len>:<bytes>]), so keys and values
    may contain any byte, including spaces and newlines.

    {b v2 (binary)}: length-prefixed frame (multi-byte fields big-endian):
    {v
      byte 0     magic 0xB2     (never a decimal digit, so sniffable)
      byte 1     opcode         (request 0x01-0x0B, response 0x81-0x8B)
      byte 2     flags          (bit 0: request id present)
      byte 3     reserved       (must be 0)
      bytes 4-7  request id     (uint32, 0 when untagged)
      varint     body length    (LEB128, <= max_frame)
      body       segments: zigzag LEB128 integers, varint-length-prefixed
                 strings, one-byte flags
    v}
    The body length makes every binary frame skippable: a malformed body
    is consumed whole and answered with [ERR] without losing framing.  A
    text frame always opens with a decimal digit and a binary frame with
    [0xB2], so the first byte of a connection selects its wire
    ({!Req_decoder} sniffs it).

    {b Request ids (pipelining).}  A request may carry a client-chosen id:
    ["@<id> "] in front of a text payload, the header's id field on the
    binary wire.  Tagged requests form a pipeline: the client keeps a
    window of them in flight on one connection, the server echoes each id
    on its response, and responses may return in any order.  Untagged
    requests keep the v1 one-at-a-time, in-order contract. *)

type request =
  | Ping
  | Get of string
  | Set of string * string
  | Del of string
  | Update of string * int
      (** [Update (key, delta)]: atomic fetch-and-add on the key's decimal
          value (absent or non-numeric reads as 0); responds with the new
          value ([Int]). *)
  | Scan of string * int
      (** [Scan (start, count)]: ordered range read — the first [count]
          key/value pairs with key >= [start], ascending, served off the
          wait-free read plane; responds with [Range]. *)
  | Stats
  | Kill of int
      (** Admin/chaos: crash worker [w] at its next admission — the worker
          abandons its claimed request back to the dispatch queue and parks
          forever holding an admission slot. *)
  | Topo
      (** Cluster control plane: fetch the node's routing table.  Responds
          with {!constructor:Topo_reply}. *)
  | Handoff of int * string
      (** Admin: [Handoff (shard, addr)] live-migrates [shard] from this
          node to the node listening at [addr] ("host:port").  Responds [Ok]
          once routing has flipped, or [Error] if the handoff failed (the
          source keeps ownership). *)
  | Mig_import of int * int * bool * (string * string option) list
      (** Node-to-node migration data push: [Mig_import (shard, epoch,
          final, changes)] applies [changes] ([Some v] = set, [None] =
          delete) to the receiver's copy of [shard].  The [final] chunk
          carries the post-fence delta and transfers ownership to the
          receiver at routing epoch [epoch]. *)

type response =
  | Pong
  | Ok
  | Value of string option  (** [GET] result; [None] prints as [NIL] *)
  | Deleted of bool  (** whether the key existed *)
  | Int of int
  | Stats_reply of (string * int) list
  | Range of (string * string) list  (** [SCAN] result, ascending by key *)
  | Error of string
  | Moved of int * int * string
      (** [Moved (shard, epoch, addr)]: this node does not own the key's
          shard — retry at [addr], and adopt the mapping if [epoch] is newer
          than the client's routing table. *)
  | Topo_reply of int * (int * string) list
      (** [Topo_reply (epoch, owners)]: the node's routing table — one
          [(shard, addr)] per shard, valid as of [epoch]. *)

type wire = Text | Binary

val wire_name : wire -> string

val print_request : request -> string
(** The text wire's payload for a request, untagged and unframed. *)

val parse_request : string -> (request, string) result
(** Parse one untagged text payload. *)

val print_response : response -> string
val parse_response : string -> (response, string) result

val max_frame : int
(** Frames (text payloads / binary bodies) longer than this are rejected. *)

(** {2 Decoded events}

    Both wires surface frames through one event alphabet so the dispatch
    loop is wire-agnostic. *)
type 'a decoded =
  | Dec_frame of int option * 'a  (** one complete, well-formed frame *)
  | Dec_skip of int option * string
      (** a malformed frame whose bytes were fully consumed (length intact):
          reply [ERR] and keep the connection — the stream is resynchronized *)
  | Dec_more  (** need more bytes *)
  | Dec_broken of string
      (** the byte stream can no longer be trusted (bad magic/header,
          oversized length): reply [ERR] once, then close *)

val encode_request_wire : Buffer.t -> wire -> id:int option -> request -> unit
(** Append one framed request in the given wire's encoding. *)

val encode_response_wire : Buffer.t -> wire -> id:int option -> response -> unit

(** Server-side decoder that sniffs the wire from the connection's first
    byte and then deframes + parses requests on that wire for the rest of
    the connection. *)
module Req_decoder : sig
  type t

  val create : unit -> t

  val wire : t -> wire option
  (** [None] until the first byte arrives. *)

  val feed : t -> string -> unit
  val feed_bytes : t -> Bytes.t -> off:int -> len:int -> unit
  val next : t -> request decoded
end

(** Client-side decoder; the client knows which wire it opened. *)
module Resp_decoder : sig
  type t

  val create : wire -> t
  val feed : t -> string -> unit
  val feed_bytes : t -> Bytes.t -> off:int -> len:int -> unit
  val next : t -> response decoded
end
