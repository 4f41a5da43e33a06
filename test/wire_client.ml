(* The tests' socket client, for either wire: requests are framed by the
   codec's own encoder and sent with [Netio.write_all], responses come back
   through [Resp_decoder].  A receive timeout ([~timeout_s], or a later
   SO_RCVTIMEO on [fd]) surfaces as [Timeout].  Malformed input is built by
   hand and sent with [send_raw]. *)

module P = Kex_service.Protocol

type t = { fd : Unix.file_descr; wire : P.wire; dec : P.Resp_decoder.t; buf : Bytes.t }

exception Timeout

let connect ?(wire = P.Text) ?timeout_s port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Option.iter (Unix.setsockopt_float fd Unix.SO_RCVTIMEO) timeout_s;
  { fd; wire; dec = P.Resp_decoder.create wire; buf = Bytes.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
let send_raw c s = Kex_service.Netio.write_all c.fd s

(* Frame every [(id, request)] into one write, as a pipelining client does. *)
let send c reqs =
  let b = Buffer.create 256 in
  List.iter (fun (id, r) -> P.encode_request_wire b c.wire ~id r) reqs;
  send_raw c (Buffer.contents b)

(* The next response frame and its id, reading as needed. *)
let rec recv_frame c =
  match P.Resp_decoder.next c.dec with
  | P.Dec_frame (id, r) -> (id, r)
  | P.Dec_skip (_, msg) -> failwith ("client skip: " ^ msg)
  | P.Dec_broken msg -> failwith ("client broken: " ^ msg)
  | P.Dec_more -> (
      match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
      | 0 -> failwith "server closed the connection"
      | n ->
          P.Resp_decoder.feed_bytes c.dec c.buf ~off:0 ~len:n;
          recv_frame c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout)

(* One untagged response: the v1 one-at-a-time exchange. *)
let recv c =
  match recv_frame c with
  | None, r -> r
  | Some id, _ -> failwith (Printf.sprintf "tagged response %d on an untagged exchange" id)

(* One id-tagged response: the pipelined wire. *)
let recv_tagged c =
  match recv_frame c with
  | Some id, r -> (id, r)
  | None, r -> failwith ("untagged response on a pipelined stream: " ^ P.print_response r)

let call ?id c r =
  send c [ (id, r) ];
  recv_frame c

let rpc c r =
  send c [ (None, r) ];
  recv c

let assert_resp ctx expected actual =
  Alcotest.(check string) ctx (P.print_response expected) (P.print_response actual)
