(* The kexd wire protocol: one request/response grammar over two framings,
   selected per connection by sniffing the first byte.  The codec is pure —
   encoders append to a buffer, decoders deframe fed byte chunks — so the
   whole thing unit- and property-tests without a socket.

   The grammar names each message's segments once, in wire order:

   Requests:   PING | STATS | KILL <int> | TOPO
               GET <s> | SET <s> <s> | DEL <s> | UPDATE <s> <int>
               SCAN <s> <int>
               HANDOFF <int> <s>
               MIGIMPORT <int> <int> <flag> <count> { <s> <flag> [<s> if 1] }
   Responses:  PONG | OK | NIL | VAL <s> | DELETED <flag> | INT <int>
               STATS <count> { <s> <int> } | ERR <s>
               RANGE <count> { <s> <s> }
               MOVED <int> <int> <s>
               TOPO <int> <count> { <int> <s> }

   A wire supplies only how one segment is spelled and the frame around the
   body.

   v1 (text), kept for compatibility:

   Frame      := <payload-length in decimal> '\n' <payload>
   Payload    := [ '@' <id> ' ' ] <KEYWORD> <body>
   Segment    := ' ' then a decimal integer (flags are 0 or 1), or a string
                 <length>:<bytes> (netstring-style, so keys and values may
                 contain spaces, newlines, colons, ...)

   v2 (binary), the hot-path wire (all multi-byte fields big-endian):

     byte 0      magic 0xB2      (never a decimal digit, so sniffable)
     byte 1      opcode          (request 0x01-0x0B, response 0x81-0x8B)
     byte 2      flags           (bit0: request id present; others ignored)
     byte 3      reserved        (must be 0)
     bytes 4-7   request id      (uint32, 0 when untagged)
     varint      body length     (LEB128, <= max_frame)
     body        segments: integers are zigzag LEB128 varints, strings
                 varint-length-prefixed bytes, flags one byte 0 or 1

   The body length makes every binary frame skippable: a malformed body is
   consumed and answered with ERR without losing framing. *)

type request =
  | Ping
  | Get of string
  | Set of string * string
  | Del of string
  | Update of string * int  (* atomic fetch-and-add on the decimal value *)
  | Scan of string * int  (* ordered range read: first [count] keys >= start *)
  | Stats
  | Kill of int  (* admin: crash worker [w] at its next admission *)
  (* Cluster control plane: *)
  | Topo  (* fetch the node's routing table (epoch + shard owners) *)
  | Handoff of int * string  (* admin: migrate shard [s] to node [addr] *)
  | Mig_import of int * int * bool * (string * string option) list
      (* migration data push: shard, epoch, final?, changes
         ([Some v] = set, [None] = delete).  The final chunk carries the
         post-fence delta and transfers ownership at [epoch]. *)

type response =
  | Pong
  | Ok
  | Value of string option
  | Deleted of bool
  | Int of int
  | Stats_reply of (string * int) list
  | Range of (string * string) list  (* SCAN result, ascending by key *)
  | Error of string
  | Moved of int * int * string  (* shard, routing epoch, owner address *)
  | Topo_reply of int * (int * string) list  (* epoch, shard -> owner address *)

type wire = Text | Binary

let wire_name = function Text -> "text" | Binary -> "binary"

let max_frame = 16 * 1024 * 1024
let magic = 0xB2

(* ------------------------------- writing -------------------------------- *)

(* Decimal digits straight into the buffer, built on the non-positive
   magnitude so [min_int] needs no special case. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_decimal b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

let decimal_size n =
  let rec go n acc = if n <= -10 then go (n / 10) (acc + 1) else acc in
  if n < 0 then go n 2 else go (-n) 1

(* LEB128 varints over OCaml's 63-bit ints; signed values go through
   zigzag so small magnitudes stay small on the wire. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let rec add_varint b n =
  if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    add_varint b (n lsr 7)
  end

(* Where a body writer's segments go.  An encode runs the writer twice:
   with [out = None] it only counts the bytes ([size]), so the frame header
   can carry the body length; then it appends them to the output buffer. *)
type sink = { wire : wire; mutable out : Buffer.t option; mutable size : int }

let put_int k n =
  match (k.out, k.wire) with
  | None, Text -> k.size <- k.size + 1 + decimal_size n
  | None, Binary -> k.size <- k.size + varint_size (zigzag n)
  | Some b, Text ->
      Buffer.add_char b ' ';
      add_decimal b n
  | Some b, Binary -> add_varint b (zigzag n)

let put_str k s =
  let n = String.length s in
  match (k.out, k.wire) with
  | None, Text -> k.size <- k.size + 2 + decimal_size n + n
  | None, Binary -> k.size <- k.size + varint_size n + n
  | Some b, Text ->
      Buffer.add_char b ' ';
      add_decimal b n;
      Buffer.add_char b ':';
      Buffer.add_string b s
  | Some b, Binary ->
      add_varint b n;
      Buffer.add_string b s

let put_flag k f =
  match (k.out, k.wire) with
  | _, Text -> put_int k (Bool.to_int f)
  | None, Binary -> k.size <- k.size + 1
  | Some b, Binary -> Buffer.add_char b (if f then '\001' else '\000')

(* ------------------------------- reading -------------------------------- *)

exception Fail of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Fail msg)) fmt

(* A cursor over one body, in place in a decoder's buffer (or over a
   payload string): bytes [p, stop).  Text error offsets count from [base],
   the start of the untagged payload.  Parse errors raise [Fail]. *)
type cursor = { cw : wire; b : Bytes.t; mutable p : int; stop : int; base : int }

let byte c =
  if c.p >= c.stop then fail "body truncated";
  let v = Bytes.get_uint8 c.b c.p in
  c.p <- c.p + 1;
  v

let uvarint c =
  let rec go shift acc =
    if shift > 62 then fail "varint too long";
    let v = byte c in
    let acc = acc lor ((v land 0x7f) lsl shift) in
    if v land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let space c =
  if c.p < c.stop && Bytes.get c.b c.p = ' ' then c.p <- c.p + 1
  else fail "expected ' ' at offset %d" (c.p - c.base)

let is_digit c = c.p < c.stop && Bytes.get c.b c.p >= '0' && Bytes.get c.b c.p <= '9'

(* [+-]?[0-9]+, range-checked as [int_of_string] does; accumulated as a
   non-positive number so [min_int] fits. *)
let decimal c =
  let start = c.p in
  let neg = c.p < c.stop && Bytes.get c.b c.p = '-' in
  if neg || (c.p < c.stop && Bytes.get c.b c.p = '+') then c.p <- c.p + 1;
  let digits = c.p and acc = ref 0 and ok = ref true in
  while is_digit c do
    let d = Char.code (Bytes.get c.b c.p) - 48 in
    if !acc < (min_int + d) / 10 then ok := false;
    acc := (!acc * 10) - d;
    c.p <- c.p + 1
  done;
  if c.p = digits || (not !ok) || (!acc = min_int && not neg) then
    fail "expected integer at offset %d" (start - c.base);
  if neg then !acc else - !acc

let get_int c =
  match c.cw with
  | Text ->
      space c;
      decimal c
  | Binary -> unzigzag (uvarint c)

let get_str c =
  let len =
    match c.cw with
    | Text ->
        space c;
        let len = decimal c in
        if len < 0 then fail "negative string length";
        if c.p >= c.stop || Bytes.get c.b c.p <> ':' then
          fail "expected ':' at offset %d" (c.p - c.base);
        c.p <- c.p + 1;
        if len > c.stop - c.p then fail "string extends past payload";
        len
    | Binary ->
        let len = uvarint c in
        if len < 0 || len > c.stop - c.p then fail "string extends past body";
        len
  in
  let s = Bytes.sub_string c.b c.p len in
  c.p <- c.p + len;
  s

let get_flag c what =
  match (match c.cw with Text -> get_int c | Binary -> byte c) with
  | 0 -> false
  | 1 -> true
  | n -> fail "%s expects 0 or 1, got %d" what n

let get_nat c what =
  let n = get_int c in
  if n < 0 then fail "negative %s" what;
  n

(* ------------------------------- grammar -------------------------------- *)

(* Opcode [first + i] is spelled [keywords.(i)] on the text wire. *)
let req_keywords =
  [| "PING"; "STATS"; "KILL"; "GET"; "SET"; "DEL"; "UPDATE"; "SCAN"; "TOPO"; "HANDOFF";
     "MIGIMPORT" |]

let req_opcode = function
  | Ping -> 0x01
  | Stats -> 0x02
  | Kill _ -> 0x03
  | Get _ -> 0x04
  | Set _ -> 0x05
  | Del _ -> 0x06
  | Update _ -> 0x07
  | Scan _ -> 0x08
  | Topo -> 0x09
  | Handoff _ -> 0x0A
  | Mig_import _ -> 0x0B

let write_request k = function
  | Ping | Stats | Topo -> ()
  | Kill w -> put_int k w
  | Get key | Del key -> put_str k key
  | Set (key, v) ->
      put_str k key;
      put_str k v
  | Update (key, n) | Scan (key, n) ->
      put_str k key;
      put_int k n
  | Handoff (shard, addr) ->
      put_int k shard;
      put_str k addr
  | Mig_import (shard, epoch, final, changes) ->
      put_int k shard;
      put_int k epoch;
      put_flag k final;
      put_int k (List.length changes);
      List.iter
        (fun (key, v) ->
          put_str k key;
          put_flag k (Option.is_some v);
          Option.iter (put_str k) v)
        changes

let read_request c = function
  | 0x01 -> Ping
  | 0x02 -> Stats
  | 0x03 -> Kill (get_int c)
  | 0x04 -> Get (get_str c)
  | 0x05 ->
      let key = get_str c in
      Set (key, get_str c)
  | 0x06 -> Del (get_str c)
  | 0x07 ->
      let key = get_str c in
      Update (key, get_int c)
  | 0x08 ->
      let start = get_str c in
      Scan (start, get_nat c "SCAN count")
  | 0x09 -> Topo
  | 0x0A ->
      let shard = get_nat c "HANDOFF shard" in
      Handoff (shard, get_str c)
  | 0x0B ->
      let shard = get_nat c "MIGIMPORT shard" in
      let epoch = get_nat c "MIGIMPORT epoch" in
      let final = get_flag c "MIGIMPORT final" in
      let count = get_nat c "MIGIMPORT count" in
      Mig_import
        ( shard, epoch, final,
          List.init count (fun _ ->
              let key = get_str c in
              if get_flag c "MIGIMPORT change tag" then (key, Some (get_str c)) else (key, None)) )
  | op -> fail "unknown request opcode 0x%02x" op

let resp_keywords =
  [| "PONG"; "OK"; "NIL"; "VAL"; "DELETED"; "INT"; "STATS"; "ERR"; "RANGE"; "MOVED"; "TOPO" |]

let resp_opcode = function
  | Pong -> 0x81
  | Ok -> 0x82
  | Value None -> 0x83
  | Value (Some _) -> 0x84
  | Deleted _ -> 0x85
  | Int _ -> 0x86
  | Stats_reply _ -> 0x87
  | Error _ -> 0x88
  | Range _ -> 0x89
  | Moved _ -> 0x8A
  | Topo_reply _ -> 0x8B

let write_response k = function
  | Pong | Ok | Value None -> ()
  | Value (Some s) | Error s -> put_str k s
  | Deleted existed -> put_flag k existed
  | Int n -> put_int k n
  | Stats_reply pairs ->
      put_int k (List.length pairs);
      List.iter
        (fun (name, v) ->
          put_str k name;
          put_int k v)
        pairs
  | Range pairs ->
      put_int k (List.length pairs);
      List.iter
        (fun (key, v) ->
          put_str k key;
          put_str k v)
        pairs
  | Moved (shard, epoch, addr) ->
      put_int k shard;
      put_int k epoch;
      put_str k addr
  | Topo_reply (epoch, owners) ->
      put_int k epoch;
      put_int k (List.length owners);
      List.iter
        (fun (shard, addr) ->
          put_int k shard;
          put_str k addr)
        owners

let read_response c = function
  | 0x81 -> Pong
  | 0x82 -> Ok
  | 0x83 -> Value None
  | 0x84 -> Value (Some (get_str c))
  | 0x85 -> Deleted (get_flag c "DELETED")
  | 0x86 -> Int (get_int c)
  | 0x87 ->
      let count = get_nat c "STATS count" in
      Stats_reply
        (List.init count (fun _ ->
             let name = get_str c in
             (name, get_int c)))
  | 0x88 -> Error (get_str c)
  | 0x89 ->
      let count = get_nat c "RANGE count" in
      Range
        (List.init count (fun _ ->
             let key = get_str c in
             (key, get_str c)))
  | 0x8A ->
      let shard = get_nat c "MOVED shard" in
      let epoch = get_nat c "MOVED epoch" in
      Moved (shard, epoch, get_str c)
  | 0x8B ->
      let epoch = get_nat c "TOPO epoch" in
      let count = get_nat c "TOPO count" in
      Topo_reply
        ( epoch,
          List.init count (fun _ ->
              let shard = get_nat c "TOPO shard" in
              (shard, get_str c)) )
  | op -> fail "unknown response opcode 0x%02x" op

type 'a grammar = {
  what : string;
  first : int;
  keywords : string array;
  opcode : 'a -> int;
  write : sink -> 'a -> unit;
  read : cursor -> int -> 'a;
}

let requests =
  { what = "request"; first = 0x01; keywords = req_keywords; opcode = req_opcode;
    write = write_request; read = read_request }

let responses =
  { what = "response"; first = 0x81; keywords = resp_keywords; opcode = resp_opcode;
    write = write_response; read = read_response }

(* ------------------------------- framing -------------------------------- *)

let encode g b wire ~id msg =
  let k = { wire; out = None; size = 0 } in
  g.write k msg;
  let op = g.opcode msg in
  (match wire with
  | Binary ->
      let flags, idv = match id with None -> (0, 0) | Some i -> (1, i land 0xFFFFFFFF) in
      Buffer.add_char b (Char.unsafe_chr magic);
      Buffer.add_char b (Char.unsafe_chr op);
      Buffer.add_char b (Char.unsafe_chr flags);
      Buffer.add_char b '\000';
      Buffer.add_uint16_be b (idv lsr 16);
      Buffer.add_uint16_be b (idv land 0xFFFF);
      add_varint b k.size
  | Text -> (
      let kw = g.keywords.(op - g.first) in
      let tag = match id with None -> 0 | Some i -> 2 + decimal_size i in
      add_decimal b (tag + String.length kw + k.size);
      Buffer.add_char b '\n';
      (match id with
      | None -> ()
      | Some i ->
          Buffer.add_char b '@';
          add_decimal b i;
          Buffer.add_char b ' ');
      Buffer.add_string b kw));
  k.out <- Some b;
  g.write k msg

let encode_request_wire b wire ~id r = encode requests b wire ~id r
let encode_response_wire b wire ~id r = encode responses b wire ~id r

(* The text keyword at the cursor, as an opcode. *)
let keyword g c =
  let start = c.p in
  while c.p < c.stop && Bytes.get c.b c.p <> ' ' do
    c.p <- c.p + 1
  done;
  let len = c.p - start in
  let rec same kw i = i = len || (kw.[i] = Bytes.get c.b (start + i) && same kw (i + 1)) in
  let rec find i =
    if i = Array.length g.keywords then
      fail "unknown %s %S" g.what (Bytes.sub_string c.b start len)
    else if String.length g.keywords.(i) = len && same g.keywords.(i) 0 then g.first + i
    else find (i + 1)
  in
  find 0

(* One whole body; a binary body's opcode came in its header, a text body
   opens with its keyword. *)
let read_body g c ~opcode =
  match
    let op = match c.cw with Binary -> opcode | Text -> keyword g c in
    let v = g.read c op in
    if c.p <> c.stop then
      (match c.cw with
      | Text -> fail "trailing bytes at offset %d" (c.p - c.base)
      | Binary -> fail "trailing bytes in body");
    v
  with
  | v -> Stdlib.Ok v
  | exception Fail msg -> Stdlib.Error msg

let parse g s =
  read_body g
    { cw = Text; b = Bytes.unsafe_of_string s; p = 0; stop = String.length s; base = 0 }
    ~opcode:0

let print g msg =
  let b = Buffer.create 32 in
  Buffer.add_string b g.keywords.(g.opcode msg - g.first);
  g.write { wire = Text; out = Some b; size = 0 } msg;
  Buffer.contents b

let print_request r = print requests r
let parse_request s = parse requests s
let print_response r = print responses r
let parse_response s = parse responses s

(* --------------------------- decoded events ----------------------------- *)

(* Both wires surface frames through one event alphabet, so the server's
   dispatch loop is wire-agnostic.  [Dec_skip] is the resynchronization
   contract: the frame's length was intact, so its bytes were consumed and
   the connection may continue after an ERR reply.  [Dec_broken] means the
   byte stream itself can no longer be trusted (bad magic, bad header,
   oversized length): reply ERR once, then close. *)
type 'a decoded =
  | Dec_frame of int option * 'a
  | Dec_skip of int option * string
  | Dec_more
  | Dec_broken of string

(* One grow-only input buffer per connection, for either wire: bytes
   [pos, len) are live and frames are parsed where they lie.  A feed that
   needs room first slides the live bytes down, and only then doubles the
   backing [buf], so there is no per-frame copy or allocation.  [wire] is
   [None] until the first byte arrives. *)
type decoder = {
  mutable wire : wire option;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable pos : int;
}

let create wire = { wire; buf = Bytes.create 4096; len = 0; pos = 0 }

let reserve t n =
  if t.len + n > Bytes.length t.buf then begin
    let live = t.len - t.pos in
    if t.pos > 0 then begin
      Bytes.blit t.buf t.pos t.buf 0 live;
      t.len <- live;
      t.pos <- 0
    end;
    if live + n > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while live + n > !cap do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.buf 0 nb 0 live;
      t.buf <- nb
    end
  end

(* The first byte decides the wire: text frames open with a decimal digit
   (the length header), binary frames with the 0xB2 magic.  Anything else
   goes to the text deframer, whose header check reports it broken. *)
let feed_bytes t b ~off ~len =
  if len > 0 then begin
    if t.wire = None then
      t.wire <- Some (if Bytes.get_uint8 b off = magic then Binary else Text);
    reserve t len;
    Bytes.blit b off t.buf t.len len;
    t.len <- t.len + len
  end

let feed t s = feed_bytes t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let event id = function Stdlib.Ok v -> Dec_frame (id, v) | Stdlib.Error msg -> Dec_skip (id, msg)

let next_binary g t =
  let p0 = t.pos in
  if t.len = p0 then Dec_more
  else if Bytes.get_uint8 t.buf p0 <> magic then
    Dec_broken (Printf.sprintf "bad magic byte 0x%02x" (Bytes.get_uint8 t.buf p0))
  else if t.len - p0 < 8 then Dec_more
  else begin
    let reserved = Bytes.get_uint8 t.buf (p0 + 3) in
    let id =
      if Bytes.get_uint8 t.buf (p0 + 2) land 1 = 0 then None
      else
        Some ((Bytes.get_uint16_be t.buf (p0 + 4) lsl 16) lor Bytes.get_uint16_be t.buf (p0 + 6))
    in
    (* The body-length varint, bounded at 9 bytes. *)
    let rec body_len p shift acc =
      if p >= t.len then Dec_more
      else if shift > 62 then Dec_broken "bad body-length varint"
      else
        let v = Bytes.get_uint8 t.buf p in
        let acc = acc lor ((v land 0x7f) lsl shift) in
        if v land 0x80 <> 0 then body_len (p + 1) (shift + 7) acc
        else if acc < 0 || acc > max_frame then
          Dec_broken (Printf.sprintf "frame body length %d out of range" acc)
        else if p + 1 + acc > t.len then Dec_more
        else begin
          t.pos <- p + 1 + acc;
          if reserved <> 0 then
            Dec_skip (id, Printf.sprintf "nonzero reserved byte 0x%02x" reserved)
          else
            event id
              (read_body g
                 { cw = Binary; b = t.buf; p = p + 1; stop = p + 1 + acc; base = p + 1 }
                 ~opcode:(Bytes.get_uint8 t.buf (p0 + 1)))
        end
    in
    body_len (p0 + 8) 0 0
  end

(* The first [c] in [b] at or after [i], or [stop] if none comes before. *)
let rec index_from b c i stop =
  if i >= stop || Bytes.get b i = c then i else index_from b c (i + 1) stop

(* A text payload may open with a client-chosen id ("@<id> "): tagged
   requests form a pipeline whose responses echo the id and may return in
   any order.  Untagged payloads keep the v1 one-at-a-time, in-order
   contract. *)
let next_text g t =
  let nl = index_from t.buf '\n' t.pos t.len in
  if nl = t.len then
    if t.len - t.pos > 20 then Dec_broken "frame header too long (no newline)" else Dec_more
  else
    let header = Bytes.sub_string t.buf t.pos (nl - t.pos) in
    match int_of_string_opt header with
    | None -> Dec_broken (Printf.sprintf "bad frame header %S" header)
    | Some n when n < 0 || n > max_frame ->
        Dec_broken (Printf.sprintf "frame length %d out of range" n)
    | Some n when t.len - (nl + 1) < n -> Dec_more
    | Some n ->
        let p = nl + 1 and stop = nl + 1 + n in
        t.pos <- stop;
        let body id p =
          event id (read_body g { cw = Text; b = t.buf; p; stop; base = p } ~opcode:0)
        in
        if n = 0 || Bytes.get t.buf p <> '@' then body None p
        else
          let sp = index_from t.buf ' ' p stop in
          if sp = stop then Dec_skip (None, "tagged payload has no ' ' after the id")
          else (
            match int_of_string_opt (Bytes.sub_string t.buf (p + 1) (sp - p - 1)) with
            | Some id when id >= 0 -> body (Some id) (sp + 1)
            | _ ->
                Dec_skip
                  (None, Printf.sprintf "bad request id %S" (Bytes.sub_string t.buf p (sp - p))))

let next g t =
  match t.wire with
  | None -> Dec_more
  | Some Binary -> next_binary g t
  | Some Text -> next_text g t

module Req_decoder = struct
  type t = decoder

  let create () = create None
  let wire t = t.wire
  let feed = feed
  let feed_bytes = feed_bytes
  let next t = next requests t
end

(* The client side knows which wire it opened, so no sniffing. *)
module Resp_decoder = struct
  type t = decoder

  let create wire = create (Some wire)
  let feed = feed
  let feed_bytes = feed_bytes
  let next t = next responses t
end
