(* The kexd wire protocol, exercised without a socket: the codec is pure
   (encoders append to a buffer, decoders deframe fed chunks), so both the
   unit round-trips and the qcheck properties below run entirely in
   memory. *)

module P = Kex_service.Protocol
module Chaos = Kex_service.Chaos
module Json = Kex_service.Json
module Loadgen = Kex_service.Loadgen
module Q = QCheck2

(* ------------------------- unit: request codec -------------------------- *)

let req = Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (P.print_request r)) ( = )
let resp = Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (P.print_response r)) ( = )

let roundtrip_req r =
  match P.parse_request (P.print_request r) with
  | Ok r' -> Alcotest.check req (P.print_request r) r r'
  | Error msg -> Alcotest.failf "no parse for %S: %s" (P.print_request r) msg

let roundtrip_resp r =
  match P.parse_response (P.print_response r) with
  | Ok r' -> Alcotest.check resp (P.print_response r) r r'
  | Error msg -> Alcotest.failf "no parse for %S: %s" (P.print_response r) msg

let nasty = [ ""; " "; "a b"; "x:y"; "12:fake"; "line1\nline2"; String.make 300 'z'; "\x00\x01" ]

let test_request_roundtrips () =
  List.iter roundtrip_req [ P.Ping; P.Stats; P.Kill 0; P.Kill 17; P.Topo ];
  List.iter
    (fun s ->
      roundtrip_req (P.Get s);
      roundtrip_req (P.Del s);
      roundtrip_req (P.Set (s, s ^ "-v"));
      roundtrip_req (P.Update (s, -3));
      roundtrip_req (P.Scan (s, 64));
      roundtrip_req (P.Handoff (3, s));
      roundtrip_req (P.Mig_import (0, 5, true, [ (s, Some (s ^ "-v")); (s ^ "2", None) ])))
    nasty;
  roundtrip_req (P.Mig_import (7, 0, false, []))

let test_response_roundtrips () =
  List.iter roundtrip_resp
    [ P.Pong; P.Ok; P.Value None; P.Deleted true; P.Deleted false; P.Int (-42);
      P.Stats_reply []; P.Stats_reply [ ("served", 12); ("a b", 0) ]; P.Error "boom";
      P.Range []; P.Range [ ("a", "1"); ("b\n", " ") ];
      P.Moved (2, 7, "127.0.0.1:7071"); P.Topo_reply (1, []);
      P.Topo_reply (3, [ (0, "127.0.0.1:7070"); (1, "10.0.0.2:7071") ]) ];
  List.iter (fun s -> roundtrip_resp (P.Value (Some s))) nasty

let test_malformed_rejected () =
  let bad_req =
    [ ""; "NOPE"; "GET"; "GET x"; "GET 5:ab"; "GET 2:abc"; "SET 1:a"; "UPDATE 1:a x";
      "KILL"; "KILL x"; "PING extra"; "GET -1:a"; "SCAN 1:a"; "SCAN 1:a x"; "SCAN 1:a -1";
      "TOPO extra"; "HANDOFF"; "HANDOFF -1 1:a"; "HANDOFF 0"; "MIGIMPORT";
      "MIGIMPORT -1 1 0 0"; "MIGIMPORT 0 -1 0 0"; "MIGIMPORT 0 1 2 0"; "MIGIMPORT 0 1 0 -1";
      "MIGIMPORT 0 1 0 1"; "MIGIMPORT 0 1 0 1 1:a 2"; "MIGIMPORT 0 1 0 2 1:a 0";
      "GET 4611686018427387903:a" ]
  in
  List.iter
    (fun s ->
      match P.parse_request s with
      | Ok _ -> Alcotest.failf "%S should not parse as a request" s
      | Error _ -> ())
    bad_req;
  let bad_resp =
    [ ""; "WHAT"; "VAL"; "DELETED 2"; "STATS"; "STATS 2 1:a 1"; "INT"; "OK !"; "MOVED";
      "MOVED -1 1 1:a"; "MOVED 0 -1 1:a"; "MOVED 0 1"; "TOPO"; "TOPO -1 0"; "TOPO 1 -1";
      "TOPO 1 1"; "TOPO 1 1 -1 1:a" ]
  in
  List.iter
    (fun s ->
      match P.parse_response s with
      | Ok _ -> Alcotest.failf "%S should not parse as a response" s
      | Error _ -> ())
    bad_resp

(* ------------------------ unit: framing helpers ------------------------- *)

let buf_str f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let text_frame payload = Printf.sprintf "%d\n%s" (String.length payload) payload

(* Every event [next] yields until it asks for more bytes or breaks. *)
let events next =
  let rec go acc =
    match next () with
    | P.Dec_more -> List.rev acc
    | P.Dec_broken _ as ev -> List.rev (ev :: acc)
    | ev -> go (ev :: acc)
  in
  go []

(* Drain a decoder's [next] thunk until it asks for more bytes. *)
let drain_dec next =
  let rec go acc =
    match next () with
    | P.Dec_frame (id, x) -> go ((id, x) :: acc)
    | P.Dec_more -> Stdlib.Ok (List.rev acc)
    | P.Dec_skip (_, msg) -> Stdlib.Error ("skip: " ^ msg)
    | P.Dec_broken msg -> Stdlib.Error ("broken: " ^ msg)
  in
  go []

let feed_in_cuts feed stream cuts =
  let prev = ref 0 in
  List.iter
    (fun cut ->
      feed (String.sub stream !prev (cut - !prev));
      prev := cut)
    (cuts @ [ String.length stream ])

let show_event print ev =
  let id = function Some i -> string_of_int i | None -> "-" in
  match ev with
  | P.Dec_frame (i, x) -> Printf.sprintf "frame %s %S" (id i) (print x)
  | P.Dec_skip (i, msg) -> Printf.sprintf "skip %s %S" (id i) msg
  | P.Dec_more -> "more"
  | P.Dec_broken msg -> Printf.sprintf "broken %S" msg

let req_event =
  Alcotest.testable (fun ppf ev -> Format.pp_print_string ppf (show_event P.print_request ev)) ( = )

let resp_event =
  Alcotest.testable (fun ppf ev -> Format.pp_print_string ppf (show_event P.print_response ev)) ( = )

let decode_request s =
  let dec = P.Req_decoder.create () in
  P.Req_decoder.feed dec s;
  P.Req_decoder.next dec

(* --------------------------- unit: framing ------------------------------ *)

(* Hand-built text frames, one of them an empty payload (a length-intact
   bad frame): the same events whether fed whole or a byte at a time. *)
let test_decoder_whole_and_split () =
  let payloads = [ "PING"; "GET 3:a b"; ""; "SET 1:\n 1:x" ] in
  let stream = String.concat "" (List.map text_frame payloads) in
  let expected =
    [ P.Dec_frame (None, P.Ping); P.Dec_frame (None, P.Get "a b");
      P.Dec_skip (None, "unknown request \"\""); P.Dec_frame (None, P.Set ("\n", "x")) ]
  in
  let dec = P.Req_decoder.create () in
  P.Req_decoder.feed dec stream;
  Alcotest.(check (list req_event)) "one chunk" expected (events (fun () -> P.Req_decoder.next dec));
  let dec = P.Req_decoder.create () in
  let got =
    List.concat_map
      (fun c ->
        P.Req_decoder.feed dec (String.make 1 c);
        events (fun () -> P.Req_decoder.next dec))
      (List.of_seq (String.to_seq stream))
  in
  Alcotest.(check (list req_event)) "byte at a time" expected got

let test_decoder_rejects_garbage () =
  List.iter
    (fun (what, stream) ->
      match decode_request stream with
      | P.Dec_broken _ -> ()
      | ev -> Alcotest.failf "%s answered %s" what (show_event P.print_request ev))
    [ ("bad header", "not a number\n");
      ("oversized frame", string_of_int (P.max_frame + 1) ^ "\n");
      (* A header that never terminates must break rather than buffer forever. *)
      ("unterminated header", String.make 64 '1') ]

(* ----------------------------- unit: chaos ------------------------------ *)

let test_chaos_parse () =
  Alcotest.(check (result (list (pair (float 0.) (option int))) string))
    "targets and sorting"
    (Ok [ (0.5, Some 2); (5., None); (10., None) ])
    (Result.map
       (List.map (fun (e : Chaos.event) -> (e.at_s, e.target)))
       (Chaos.parse "kill-worker@5s,kill-worker:2@0.5s,kill-worker@10s"));
  Alcotest.(check (result (list (pair (float 0.) (option int))) string))
    "empty schedule" (Ok [])
    (Result.map (List.map (fun (e : Chaos.event) -> (e.at_s, e.target))) (Chaos.parse ""));
  List.iter
    (fun s ->
      match Chaos.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse as a chaos spec" s
      | Error _ -> ())
    [ "kill-worker"; "kill-worker@"; "kill-worker@-1s"; "reboot@5s"; "kill-worker:x@5s";
      "kill-node@"; "kill-node@-2s" ];
  (* kill-node actions parse alongside kill-worker. *)
  (match Chaos.parse "kill-node@3s,kill-worker:1@1s" with
  | Ok [ e1; e2 ] ->
      Alcotest.(check bool) "kill-worker first" true
        (e1.Chaos.action = Chaos.Kill_worker && e1.Chaos.at_s = 1. && e1.Chaos.target = Some 1);
      Alcotest.(check bool) "kill-node second" true
        (e2.Chaos.action = Chaos.Kill_node && e2.Chaos.at_s = 3.)
  | _ -> Alcotest.fail "kill-node schedule must parse");
  (* to_string round-trips. *)
  let spec = "kill-worker:1@0.5s,kill-node@2s" in
  match Chaos.parse spec with
  | Error e -> Alcotest.fail e
  | Ok evs -> (
      match Chaos.parse (Chaos.to_string evs) with
      | Ok evs' -> Alcotest.(check bool) "round-trip" true (evs = evs')
      | Error e -> Alcotest.fail e)

let test_parse_mix () =
  Alcotest.(check (result (list (pair string int)) string))
    "mixed" (Ok [ ("get", 80); ("set", 20) ]) (Loadgen.parse_mix "get=80,set=20");
  (match Loadgen.parse_mix "update=1" with
  | Ok [ ("update", 1) ] -> ()
  | _ -> Alcotest.fail "update mix");
  List.iter
    (fun s ->
      match Loadgen.parse_mix s with
      | Ok _ -> Alcotest.failf "%S should not parse as a mix" s
      | Error _ -> ())
    [ ""; "get"; "get=x"; "fly=1"; "get=0,set=0"; "get=-1" ]

(* ------------------------------ unit: json ------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.(
      Obj
        [ ("schema", String "kexclusion-serve/v1");
          ("n", Int 42);
          ("f", Float 1.5);
          ("deep", List [ Null; Bool true; Bool false; String "a\"b\\c\n"; Int (-7) ]);
          ("empty_list", List []);
          ("empty_obj", Obj []) ])
  in
  (match Json.parse (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "compact round-trip" true (doc = doc')
  | Error e -> Alcotest.fail e);
  (match Json.parse (Json.to_string ~indent:2 doc) with
  | Ok doc' -> Alcotest.(check bool) "indented round-trip" true (doc = doc')
  | Error e -> Alcotest.fail e);
  (* Tolerant accessors: absent members are None, not exceptions. *)
  Alcotest.(check (option int)) "present" (Some 42) (Json.member_int "n" doc);
  Alcotest.(check (option int)) "absent" None (Json.member_int "missing" doc);
  Alcotest.(check (option string)) "wrong type" None (Json.member_str "n" doc);
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "%S should not parse as JSON" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "nul" ]

(* --------------------------- unit: id tagging --------------------------- *)

let test_tagging () =
  (* Tagged payloads carry "@<id> "; untagged payloads pass through, so v1
     clients and v2 pipelining share one wire format. *)
  Alcotest.(check string) "tag" "7\n@7 PING"
    (buf_str (fun b -> P.encode_request_wire b P.Text ~id:(Some 7) P.Ping));
  Alcotest.check req_event "tagged GET" (P.Dec_frame (Some 12, P.Get "a"))
    (decode_request (text_frame "@12 GET 1:a"));
  Alcotest.check req_event "untagged payload passes through" (P.Dec_frame (None, P.Ping))
    (decode_request (text_frame "PING"));
  (* A value that *contains* '@' is protected by the length prefix of the
     field codec, not the tag: only a leading '@' is tag syntax. *)
  Alcotest.check req_event "tagged SET with @ in key" (P.Dec_frame (Some 3, P.Set ("@x", "y")))
    (decode_request (text_frame "@3 SET 2:@x 1:y"));
  (* A malformed tag skips the frame without an id; a parse error after a
     valid tag keeps the id for the ERR reply. *)
  List.iter
    (fun s ->
      match decode_request (text_frame s) with
      | P.Dec_skip (None, _) -> ()
      | ev -> Alcotest.failf "%S answered %s" s (show_event P.print_request ev))
    [ "@"; "@12"; "@x PING"; "@-1 PING"; "@ PING" ];
  (match decode_request (text_frame "@5 NOPE") with
  | P.Dec_skip (Some 5, _) -> ()
  | ev -> Alcotest.failf "tagged garbage answered %s" (show_event P.print_request ev));
  let dec = P.Resp_decoder.create P.Text in
  P.Resp_decoder.feed dec (text_frame "@0 VAL 1:z");
  Alcotest.check resp_event "tagged response" (P.Dec_frame (Some 0, P.Value (Some "z")))
    (P.Resp_decoder.next dec)

(* ---------------------------- qcheck: codecs ---------------------------- *)

let gen_str = Q.Gen.(string_size ~gen:(char_range '\x00' '\xff') (int_range 0 40))

let gen_change = Q.Gen.(pair gen_str (oneof [ return None; map (fun v -> Some v) gen_str ]))

let gen_request =
  let open Q.Gen in
  oneof
    [ return P.Ping;
      return P.Stats;
      return P.Topo;
      map (fun w -> P.Kill w) (int_range 0 1000);
      map (fun s -> P.Get s) gen_str;
      map2 (fun k v -> P.Set (k, v)) gen_str gen_str;
      map (fun s -> P.Del s) gen_str;
      map2 (fun k d -> P.Update (k, d)) gen_str (int_range (-1000) 1000);
      map2 (fun s n -> P.Scan (s, n)) gen_str (int_range 0 1000);
      map2 (fun sh a -> P.Handoff (sh, a)) (int_range 0 64) gen_str;
      map
        (fun (sh, ep, fin, changes) -> P.Mig_import (sh, ep, fin, changes))
        (quad (int_range 0 64) (int_range 0 100000) bool
           (list_size (int_range 0 6) gen_change)) ]

let gen_response =
  let open Q.Gen in
  oneof
    [ return P.Pong;
      return P.Ok;
      return (P.Value None);
      map (fun s -> P.Value (Some s)) gen_str;
      map (fun b -> P.Deleted b) bool;
      map (fun n -> P.Int n) (int_range (-100000) 100000);
      map (fun ps -> P.Stats_reply ps) (list_size (int_range 0 8) (pair gen_str (int_range 0 1000)));
      map (fun ps -> P.Range ps) (list_size (int_range 0 8) (pair gen_str gen_str));
      map (fun s -> P.Error s) gen_str;
      map
        (fun ((sh, ep), a) -> P.Moved (sh, ep, a))
        (pair (pair (int_range 0 64) (int_range 0 100000)) gen_str);
      map
        (fun (ep, owners) -> P.Topo_reply (ep, owners))
        (pair (int_range 0 100000) (list_size (int_range 0 8) (pair (int_range 0 64) gen_str))) ]

let prop_request_roundtrip =
  Q.Test.make ~name:"request print/parse round-trips" ~count:500 ~print:P.print_request
    gen_request (fun r -> P.parse_request (P.print_request r) = Ok r)

let prop_response_roundtrip =
  Q.Test.make ~name:"response print/parse round-trips" ~count:500 ~print:P.print_response
    gen_response (fun r -> P.parse_response (P.print_response r) = Ok r)

let gen_opt_id = Q.Gen.(oneof [ return None; map (fun i -> Some i) (int_range 0 1_000_000) ])

(* Request frame streams on [wire], cut at arbitrary byte offsets,
   reassemble to exactly the sent (id, request) sequence. *)
let prop_reassembles wire ~name =
  let gen =
    let open Q.Gen in
    let* reqs = list_size (int_range 0 8) (pair gen_opt_id gen_request) in
    let stream =
      String.concat ""
        (List.map (fun (id, r) -> buf_str (fun b -> P.encode_request_wire b wire ~id r)) reqs)
    in
    let* cuts = list_size (int_range 0 12) (int_range 0 (String.length stream)) in
    return (reqs, stream, List.sort_uniq compare cuts)
  in
  Q.Test.make ~name ~count:300
    ~print:(fun (reqs, _, cuts) ->
      Printf.sprintf "%d frames, cuts at %s" (List.length reqs)
        (String.concat "," (List.map string_of_int cuts)))
    gen
    (fun (reqs, stream, cuts) ->
      let dec = P.Req_decoder.create () in
      let got = ref [] in
      let ok = ref true in
      feed_in_cuts
        (fun chunk ->
          P.Req_decoder.feed dec chunk;
          match drain_dec (fun () -> P.Req_decoder.next dec) with
          | Ok frames -> got := !got @ frames
          | Error _ -> ok := false)
        stream cuts;
      !ok && !got = reqs)

let prop_decoder_reassembles =
  prop_reassembles P.Text ~name:"decoder reassembles arbitrarily split frame streams"

(* Tagged round-trip: the id survives encode/decode for any request and
   response on the text wire. *)
let prop_tagged_roundtrip =
  Q.Test.make ~name:"tagged request/response round-trips" ~count:500
    ~print:(fun (id, req, resp) ->
      Printf.sprintf "@%d %s / %s" id (P.print_request req) (P.print_response resp))
    Q.Gen.(
      let* id = int_range 0 1_000_000 in
      let* req = gen_request in
      let* resp = gen_response in
      return (id, req, resp))
    (fun (id, req, resp) ->
      let rdec = P.Resp_decoder.create P.Text in
      P.Resp_decoder.feed rdec (buf_str (fun b -> P.encode_response_wire b P.Text ~id:(Some id) resp));
      decode_request (buf_str (fun b -> P.encode_request_wire b P.Text ~id:(Some id) req))
      = P.Dec_frame (Some id, req)
      && P.Resp_decoder.next rdec = P.Dec_frame (Some id, resp))

(* The pipelining wire contract end to end: tagged responses framed in an
   arbitrary (out-of-order) permutation, cut into arbitrary chunks, must
   reassemble into exactly the sent id->response mapping. *)
let prop_out_of_order wire ~name =
  let gen =
    let open Q.Gen in
    let* resps = list_size (int_range 0 8) gen_response in
    let tagged = List.mapi (fun id r -> (id, r)) resps in
    (* A deterministic shuffle driven by generated swap indices. *)
    let* swaps = list_size (int_range 0 16) (int_range 0 (max 1 (List.length tagged) - 1)) in
    let arr = Array.of_list tagged in
    List.iteri
      (fun i j ->
        if Array.length arr > 0 then begin
          let i = i mod Array.length arr in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        end)
      swaps;
    let stream =
      String.concat ""
        (List.map
           (fun (id, r) -> buf_str (fun b -> P.encode_response_wire b wire ~id:(Some id) r))
           (Array.to_list arr))
    in
    let* cuts = list_size (int_range 0 10) (int_range 0 (String.length stream)) in
    return (tagged, stream, List.sort_uniq compare cuts)
  in
  Q.Test.make ~name ~count:300
    ~print:(fun (sent, _, cuts) ->
      Printf.sprintf "%d responses, cuts at %s" (List.length sent)
        (String.concat "," (List.map string_of_int cuts)))
    gen
    (fun (sent, stream, cuts) ->
      let dec = P.Resp_decoder.create wire in
      let got = ref [] in
      let ok = ref true in
      feed_in_cuts
        (fun chunk ->
          P.Resp_decoder.feed dec chunk;
          match drain_dec (fun () -> P.Resp_decoder.next dec) with
          | Ok frames -> got := !got @ frames
          | Error _ -> ok := false)
        stream cuts;
      let parsed =
        List.filter_map (function Some id, r -> Some (id, r) | None, _ -> None) !got
      in
      !ok
      && List.length parsed = List.length sent
      && List.for_all (fun (id, r) -> List.assoc_opt id parsed = Some r) sent)

let prop_out_of_order_tagged_reassembly =
  prop_out_of_order P.Text ~name:"out-of-order tagged responses reassemble by id under any split"

(* ------------------------- binary v2 framing ---------------------------- *)

let all_requests =
  [ P.Ping; P.Stats; P.Kill 3; P.Get "k"; P.Set ("k", "v"); P.Del ""; P.Update ("k", -9);
    P.Scan ("k\x00\xff", 17); P.Topo; P.Handoff (2, "127.0.0.1:7071");
    P.Mig_import (1, 4, false, [ ("k", Some "v\x00"); ("gone", None) ]);
    P.Mig_import (3, 9, true, []) ]

let all_responses =
  [ P.Pong; P.Ok; P.Value None; P.Value (Some "x y\n"); P.Deleted true; P.Deleted false;
    P.Int (-1234567); P.Stats_reply [ ("served", 1) ]; P.Range [ ("a", "1"); ("b", "") ];
    P.Error "boom"; P.Moved (0, 2, "127.0.0.1:7071");
    P.Topo_reply (5, [ (0, "a:1"); (1, "b:2") ]) ]

let test_bin_roundtrips () =
  List.iteri
    (fun i r ->
      let id = if i mod 2 = 0 then Some (i * 1000) else None in
      let dec = P.Req_decoder.create () in
      P.Req_decoder.feed dec (buf_str (fun b -> P.encode_request_wire b P.Binary ~id r));
      Alcotest.check req_event (P.print_request r) (P.Dec_frame (id, r)) (P.Req_decoder.next dec);
      Alcotest.check req_event "nothing after one frame" P.Dec_more (P.Req_decoder.next dec);
      Alcotest.(check (option string)) "sniffed" (Some "binary")
        (Option.map P.wire_name (P.Req_decoder.wire dec)))
    all_requests;
  List.iteri
    (fun i r ->
      let id = if i mod 2 = 1 then Some i else None in
      let dec = P.Resp_decoder.create P.Binary in
      P.Resp_decoder.feed dec (buf_str (fun b -> P.encode_response_wire b P.Binary ~id r));
      Alcotest.check resp_event (P.print_response r) (P.Dec_frame (id, r)) (P.Resp_decoder.next dec))
    all_responses

let add_uvarint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* Hand-build a frame so malformed headers/bodies are expressible. *)
let raw_frame ?(reserved = 0) ~opcode ~id body =
  buf_str (fun b ->
      Buffer.add_char b '\xB2';
      Buffer.add_char b (Char.chr opcode);
      Buffer.add_char b '\x00';
      Buffer.add_char b (Char.chr reserved);
      Buffer.add_char b (Char.chr ((id lsr 24) land 0xff));
      Buffer.add_char b (Char.chr ((id lsr 16) land 0xff));
      Buffer.add_char b (Char.chr ((id lsr 8) land 0xff));
      Buffer.add_char b (Char.chr (id land 0xff));
      add_uvarint b (String.length body);
      Buffer.add_string b body)

let test_bin_malformed () =
  let ping = buf_str (fun b -> P.encode_request_wire b P.Binary ~id:(Some 7) P.Ping) in
  let next_of stream =
    let dec = P.Req_decoder.create () in
    P.Req_decoder.feed dec stream;
    fun () -> P.Req_decoder.next dec
  in
  (* Bad magic on a binary stream: untrusted — broken, not skipped. *)
  let dec = P.Resp_decoder.create P.Binary in
  P.Resp_decoder.feed dec "\x00rubbish";
  (match P.Resp_decoder.next dec with
  | P.Dec_broken _ -> ()
  | _ -> Alcotest.fail "bad magic must break the stream");
  (* Oversized declared body: broken (we refuse to buffer it). *)
  let b = Buffer.create 16 in
  Buffer.add_string b (String.sub ping 0 8);
  add_uvarint b (P.max_frame + 1);
  (match next_of (Buffer.contents b) () with
  | P.Dec_broken _ -> ()
  | _ -> Alcotest.fail "oversized body accepted");
  (* Non-zero reserved byte, unknown opcode, a GET body missing its key
     bytes, a key length past the body (9-byte varint, max_int) — each a
     length-intact frame: skipped, and the stream resynchronizes. *)
  List.iter
    (fun (what, bad) ->
      let next = next_of (bad ^ ping) in
      (match next () with
      | P.Dec_skip _ -> ()
      | ev -> Alcotest.failf "%s answered %s" what (show_event P.print_request ev));
      match next () with
      | P.Dec_frame (Some 7, P.Ping) -> ()
      | _ -> Alcotest.failf "stream must resynchronize after %s" what)
    [ ("reserved byte", raw_frame ~reserved:1 ~opcode:0x01 ~id:0 "");
      ("unknown opcode", raw_frame ~opcode:0x7f ~id:0 "junk");
      ("truncated segment", raw_frame ~opcode:0x04 ~id:0 "\x05ab");
      ( "overflowing string length",
        raw_frame ~opcode:0x04 ~id:0 (buf_str (fun b -> add_uvarint b max_int) ^ "a") ) ];
  (* An incomplete frame is just Dec_more until the rest arrives. *)
  let dec = P.Req_decoder.create () in
  P.Req_decoder.feed dec (String.sub ping 0 5);
  (match P.Req_decoder.next dec with
  | P.Dec_more -> ()
  | _ -> Alcotest.fail "partial frame must ask for more");
  P.Req_decoder.feed dec (String.sub ping 5 (String.length ping - 5));
  match P.Req_decoder.next dec with
  | P.Dec_frame (Some 7, P.Ping) -> ()
  | _ -> Alcotest.fail "completed frame must decode"

let prop_bin_reassembles =
  prop_reassembles P.Binary ~name:"binary decoder reassembles arbitrarily split frame streams"

(* Out-of-order tagged completion on the binary wire: responses framed in a
   shuffled order still reassemble into the sent id->response mapping. *)
let prop_bin_out_of_order =
  prop_out_of_order P.Binary ~name:"binary out-of-order tagged responses reassemble by id"

(* Sniff dispatch: the server-side decoder detects each connection's wire
   from its first byte and decodes the same (id, request) sequence on
   either framing. *)
let gen_sniffed_conn =
  let open Q.Gen in
  let* wire = oneofl [ P.Text; P.Binary ] in
  let* reqs = list_size (int_range 1 8) (pair gen_opt_id gen_request) in
  let stream =
    String.concat ""
      (List.map (fun (id, r) -> buf_str (fun b -> P.encode_request_wire b wire ~id r)) reqs)
  in
  let* cuts = list_size (int_range 0 10) (int_range 0 (String.length stream)) in
  return (wire, reqs, stream, List.sort_uniq compare cuts)

let prop_sniff_dispatch =
  Q.Test.make ~name:"Req_decoder sniffs text vs binary per connection" ~count:300
    ~print:(fun (wire, reqs, _, _) ->
      Printf.sprintf "%s, %d frames" (P.wire_name wire) (List.length reqs))
    gen_sniffed_conn
    (fun (wire, reqs, stream, cuts) ->
      let dec = P.Req_decoder.create () in
      let got = ref [] in
      let ok = ref true in
      feed_in_cuts
        (fun chunk ->
          P.Req_decoder.feed dec chunk;
          match drain_dec (fun () -> P.Req_decoder.next dec) with
          | Ok frames -> got := !got @ frames
          | Error _ -> ok := false)
        stream cuts;
      !ok && P.Req_decoder.wire dec = Some wire && !got = reqs)

(* ------------------------- golden wire bytes ---------------------------- *)

(* One frame per opcode (NIL and VAL are two) on both wires, untagged and
   with an id >= 2^16, pinned as hex: deployed clients of either wire
   depend on these exact bytes. *)
let golden_id = 0x12345678

let golden_framings =
  [ (P.Text, None); (P.Text, Some golden_id); (P.Binary, None); (P.Binary, Some golden_id) ]

let of_hex h =
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let to_hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* Per message, in [golden_framings] order. *)
let golden_requests =
  [
( P.Ping,
      [ "340a50494e47";
        "31350a403330353431393839362050494e47";
        "b20100000000000000";
        "b20101001234567800" ] );
    ( P.Stats,
      [ "350a5354415453";
        "31360a40333035343139383936205354415453";
        "b20200000000000000";
        "b20201001234567800" ] );
    ( P.Kill 3,
      [ "360a4b494c4c2033";
        "31370a40333035343139383936204b494c4c2033";
        "b2030000000000000106";
        "b2030100123456780106" ] );
    ( P.Get "k\x00 1",
      [ "31300a47455420343a6b002031";
        "32310a403330353431393839362047455420343a6b002031";
        "b20400000000000005046b002031";
        "b20401001234567805046b002031" ] );
    ( P.Set ("key", "v a:l\n"),
      [ "31380a53455420333a6b657920363a7620613a6c0a";
        "32390a403330353431393839362053455420333a6b657920363a7620613a6c0a";
        "b2050000000000000b036b6579067620613a6c0a";
        "b2050100123456780b036b6579067620613a6c0a" ] );
    ( P.Del "gone",
      [ "31300a44454c20343a676f6e65";
        "32310a403330353431393839362044454c20343a676f6e65";
        "b2060000000000000504676f6e65";
        "b2060100123456780504676f6e65" ] );
    ( P.Update ("ctr", -300),
      [ "31370a55504441544520333a637472202d333030";
        "32380a403330353431393839362055504441544520333a637472202d333030";
        "b2070000000000000603637472d704";
        "b2070100123456780603637472d704" ] );
    ( P.Scan ("s", 1000),
      [ "31330a5343414e20313a732031303030";
        "32340a40333035343139383936205343414e20313a732031303030";
        "b208000000000000040173d00f";
        "b208010012345678040173d00f" ] );
    ( P.Topo,
      [ "340a544f504f";
        "31350a4033303534313938393620544f504f";
        "b20900000000000000";
        "b20901001234567800" ] );
    ( P.Handoff (2, "127.0.0.1:7071"),
      [ "32370a48414e444f464620322031343a3132372e302e302e313a37303731";
        "33380a403330353431393839362048414e444f464620322031343a3132372e302e302e313a37303731";
        "b20a00000000000010040e3132372e302e302e313a37303731";
        "b20a01001234567810040e3132372e302e302e313a37303731" ] );
    ( P.Mig_import (1, 70000, true, [ ("a", Some "1"); ("b", None) ]),
      [ "33370a4d4947494d504f525420312037303030302031203220313a61203120313a3120313a622030";
        "34380a40333035343139383936204d4947494d504f525420312037303030302031203220313a61203120313a3120313a622030";
        "b20b0000000000000e02e0c50801040161010131016200";
        "b20b0100123456780e02e0c50801040161010131016200" ] ) ]

let golden_responses =
  [
( P.Pong,
      [ "340a504f4e47";
        "31350a4033303534313938393620504f4e47";
        "b28100000000000000";
        "b28101001234567800" ] );
    ( P.Ok,
      [ "320a4f4b";
        "31330a40333035343139383936204f4b";
        "b28200000000000000";
        "b28201001234567800" ] );
    ( P.Value None,
      [ "330a4e494c";
        "31340a40333035343139383936204e494c";
        "b28300000000000000";
        "b28301001234567800" ] );
    ( P.Value (Some "x y"),
      [ "390a56414c20333a782079";
        "32300a403330353431393839362056414c20333a782079";
        "b2840000000000000403782079";
        "b2840100123456780403782079" ] );
    ( P.Deleted true,
      [ "390a44454c455445442031";
        "32300a403330353431393839362044454c455445442031";
        "b2850000000000000101";
        "b2850100123456780101" ] );
    ( P.Int (-1234567),
      [ "31320a494e54202d31323334353637";
        "32330a4033303534313938393620494e54202d31323334353637";
        "b286000000000000048dda9601";
        "b286010012345678048dda9601" ] );
    ( P.Stats_reply [ ("served", 300); ("deaths", 0) ],
      [ "33310a5354415453203220363a7365727665642033303020363a6465617468732030";
        "34320a40333035343139383936205354415453203220363a7365727665642033303020363a6465617468732030";
        "b287000000000000120406736572766564d8040664656174687300";
        "b287010012345678120406736572766564d8040664656174687300" ] );
    ( P.Error "boom",
      [ "31300a45525220343a626f6f6d";
        "32310a403330353431393839362045525220343a626f6f6d";
        "b2880000000000000504626f6f6d";
        "b2880100123456780504626f6f6d" ] );
    ( P.Range [ ("a", "1"); ("b", "") ],
      [ "32320a52414e4745203220313a6120313a3120313a6220303a";
        "33330a403330353431393839362052414e4745203220313a6120313a3120313a6220303a";
        "b289000000000000080401610131016200";
        "b289010012345678080401610131016200" ] );
    ( P.Moved (3, 9, "10.0.0.2:7071"),
      [ "32360a4d4f564544203320392031333a31302e302e302e323a37303731";
        "33370a40333035343139383936204d4f564544203320392031333a31302e302e302e323a37303731";
        "b28a0000000000001006120d31302e302e302e323a37303731";
        "b28a0100123456781006120d31302e302e302e323a37303731" ] );
    ( P.Topo_reply (5, [ (0, "a:1"); (1, "b:2") ]),
      [ "32340a544f504f20352032203020333a613a31203120333a623a32";
        "33350a4033303534313938393620544f504f20352032203020333a613a31203120333a623a32";
        "b28b0000000000000c0a040003613a310203623a32";
        "b28b0100123456780c0a040003613a310203623a32" ] ) ]

let test_golden_frames () =
  let check_all encode decode print golden =
    List.iter
      (fun (msg, hexes) ->
        List.iter2
          (fun (wire, id) hex ->
            let ctx =
              Printf.sprintf "%s %s%s" (P.wire_name wire) (print msg)
                (if id = None then "" else " tagged")
            in
            Alcotest.(check string) ctx hex (to_hex (buf_str (fun b -> encode b wire ~id msg)));
            Alcotest.(check bool) (ctx ^ " decodes") true
              (decode wire (of_hex hex) = [ P.Dec_frame (id, msg) ]))
          golden_framings hexes)
      golden
  in
  Alcotest.(check int) "every request opcode" 11 (List.length golden_requests);
  Alcotest.(check int) "every response opcode" 11 (List.length golden_responses);
  check_all P.encode_request_wire
    (fun _ s ->
      let dec = P.Req_decoder.create () in
      P.Req_decoder.feed dec s;
      events (fun () -> P.Req_decoder.next dec))
    P.print_request golden_requests;
  check_all P.encode_response_wire
    (fun wire s ->
      let dec = P.Resp_decoder.create wire in
      P.Resp_decoder.feed dec s;
      events (fun () -> P.Resp_decoder.next dec))
    P.print_response golden_responses

let suite =
  [ Helpers.tc "request round-trips" test_request_roundtrips;
    Helpers.tc "id tagging" test_tagging;
    Helpers.tc "response round-trips" test_response_roundtrips;
    Helpers.tc "malformed payloads rejected" test_malformed_rejected;
    Helpers.tc "decoder: whole and split frames" test_decoder_whole_and_split;
    Helpers.tc "decoder rejects garbage" test_decoder_rejects_garbage;
    Helpers.tc "chaos spec parses and round-trips" test_chaos_parse;
    Helpers.tc "loadgen mix parses" test_parse_mix;
    Helpers.tc "json round-trips and tolerates absence" test_json_roundtrip;
    Helpers.tc "binary frames round-trip" test_bin_roundtrips;
    Helpers.tc "binary malformed frames skip or break" test_bin_malformed ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_request_roundtrip; prop_response_roundtrip; prop_decoder_reassembles;
        prop_tagged_roundtrip; prop_out_of_order_tagged_reassembly; prop_bin_reassembles;
        prop_bin_out_of_order; prop_sniff_dispatch ]
  @ [ Helpers.tc "golden bytes: every opcode on both wires" test_golden_frames ]
