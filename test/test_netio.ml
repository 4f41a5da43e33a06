(* Netio's symmetric robustness: [read] must survive EAGAIN/EWOULDBLOCK (a
   SO_RCVTIMEO expiry) the same way [write_all] does, instead of tearing the
   connection down mid-stream. *)

module Netio = Kex_service.Netio

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

(* The receive timeout fires several times before the peer writes; a read
   that treated EAGAIN as fatal (the old asymmetry) would raise instead of
   delivering the late bytes. *)
let test_read_retries_past_rcvtimeo () =
  with_socketpair (fun a b ->
      Unix.setsockopt_float a Unix.SO_RCVTIMEO 0.05;
      let writer =
        Thread.create
          (fun () ->
            Thread.delay 0.25;
            ignore (Unix.write b (Bytes.of_string "late") 0 4))
          ()
      in
      let buf = Bytes.create 16 in
      let n = Netio.read a buf 0 16 in
      Thread.join writer;
      Alcotest.(check int) "got the late bytes" 4 n;
      Alcotest.(check string) "payload intact" "late" (Bytes.sub_string buf 0 n))

let test_read_eof_is_zero () =
  with_socketpair (fun a b ->
      Unix.setsockopt_float a Unix.SO_RCVTIMEO 0.05;
      Unix.close b;
      let buf = Bytes.create 8 in
      Alcotest.(check int) "EOF reads as 0" 0 (Netio.read a buf 0 8))

let test_read_delivers_available_data () =
  with_socketpair (fun a b ->
      ignore (Unix.write b (Bytes.of_string "now") 0 3);
      let buf = Bytes.create 8 in
      let n = Netio.read a buf 0 8 in
      Alcotest.(check string) "immediate data" "now" (Bytes.sub_string buf 0 n))

(* ~deadline bounds the whole retry loop: the EAGAIN must surface once the
   deadline passes instead of retrying forever, and well before the old
   fixed 1 s select slice would have let it. *)
let test_read_deadline_expires () =
  with_socketpair (fun a _b ->
      Unix.set_nonblock a;
      let buf = Bytes.create 8 in
      let t0 = Unix.gettimeofday () in
      (match Netio.read ~deadline:(t0 +. 0.1) a buf 0 8 with
      | _ -> Alcotest.fail "read returned with nothing to deliver"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "waited past the deadline" true (waited >= 0.09);
      Alcotest.(check bool)
        (Printf.sprintf "no 1s retry slice (waited %.2fs)" waited)
        true (waited < 0.8))

let test_read_deadline_delivers_late_bytes () =
  with_socketpair (fun a b ->
      Unix.set_nonblock a;
      let writer =
        Thread.create
          (fun () ->
            Thread.delay 0.1;
            ignore (Unix.write b (Bytes.of_string "late") 0 4))
          ()
      in
      let buf = Bytes.create 16 in
      let n = Netio.read ~deadline:(Unix.gettimeofday () +. 2.) a buf 0 16 in
      Thread.join writer;
      Alcotest.(check string) "late bytes land before the deadline" "late"
        (Bytes.sub_string buf 0 n))

let test_read_nb () =
  with_socketpair (fun a b ->
      Unix.set_nonblock a;
      let buf = Bytes.create 16 in
      (match Netio.read_nb a buf 0 16 with
      | `Would_block -> ()
      | `Data _ | `Eof -> Alcotest.fail "empty socket should report Would_block");
      ignore (Unix.write b (Bytes.of_string "hi") 0 2);
      (match Netio.read_nb a buf 0 16 with
      | `Data 2 -> Alcotest.(check string) "payload" "hi" (Bytes.sub_string buf 0 2)
      | _ -> Alcotest.fail "expected `Data 2");
      Unix.close b;
      match Netio.read_nb a buf 0 16 with
      | `Eof -> ()
      | _ -> Alcotest.fail "closed peer should report Eof")

let test_write_nb_fills_then_blocks () =
  with_socketpair (fun a b ->
      Unix.set_nonblock a;
      let chunk = Bytes.make 65536 'x' in
      (* Fill the kernel buffers until a non-blocking write makes no
         progress; that must come back as 0, not an exception. *)
      let rec fill total guard =
        if guard = 0 then total
        else
          match Netio.write_nb a chunk 0 (Bytes.length chunk) with
          | 0 -> total
          | n -> fill (total + n) (guard - 1)
      in
      let sent = fill 0 1024 in
      Alcotest.(check bool) "some bytes were accepted" true (sent > 0);
      Alcotest.(check int) "full buffer writes 0" 0 (Netio.write_nb a chunk 0 1);
      (* Draining the peer reopens the window. *)
      let buf = Bytes.create 65536 in
      ignore (Unix.read b buf 0 (Bytes.length buf));
      Alcotest.(check bool) "drained socket accepts again" true
        (Netio.write_nb a chunk 0 (Bytes.length chunk) > 0))

(* The poll stub: readiness must be per-slot and the timeout must actually
   time out. *)
let test_poll_readiness () =
  with_socketpair (fun a b ->
      with_socketpair (fun c _d ->
          let fds = [| a; c |] in
          let flags = [| Netio.Poll.pollin; Netio.Poll.pollin |] in
          Alcotest.(check int) "nothing ready times out" 0
            (Netio.Poll.wait fds flags ~n:2 ~timeout_ms:20);
          ignore (Unix.write b (Bytes.of_string "!") 0 1);
          (* [flags] is in-out (events in, revents out): rebuild it. *)
          let flags = [| Netio.Poll.pollin; Netio.Poll.pollin |] in
          let rc = Netio.Poll.wait fds flags ~n:2 ~timeout_ms:1000 in
          Alcotest.(check int) "one fd ready" 1 rc;
          Alcotest.(check bool) "the written-to fd is the ready one" true
            (flags.(0) land Netio.Poll.pollin <> 0);
          Alcotest.(check int) "the idle fd stays quiet" 0 flags.(1)))

let test_poll_pollout_and_err () =
  with_socketpair (fun a b ->
      let fds = [| a |] in
      let flags = [| Netio.Poll.pollin lor Netio.Poll.pollout |] in
      let rc = Netio.Poll.wait fds flags ~n:1 ~timeout_ms:1000 in
      Alcotest.(check int) "writable immediately" 1 rc;
      Alcotest.(check bool) "POLLOUT set" true (flags.(0) land Netio.Poll.pollout <> 0);
      Unix.close b;
      let flags = [| Netio.Poll.pollin |] in
      let rc = Netio.Poll.wait fds flags ~n:1 ~timeout_ms:1000 in
      Alcotest.(check int) "hangup wakes the poll" 1 rc;
      Alcotest.(check bool) "readable-or-error on hangup" true
        (flags.(0) land (Netio.Poll.pollin lor Netio.Poll.pollerr) <> 0))

(* [call] over a real TCP peer: the first connection's request is
   answered; a second peer reads the request and never answers, and the
   call must come back [Error] once its deadline passes instead of
   hanging. *)
let test_call_answers_then_times_out () =
  let module P = Kex_service.Protocol in
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close listen) (fun () ->
      Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listen 2;
      let addr =
        match Unix.getsockname listen with
        | Unix.ADDR_INET (_, port) -> Printf.sprintf "127.0.0.1:%d" port
        | Unix.ADDR_UNIX _ -> assert false
      in
      let peer () =
        let buf = Bytes.create 256 in
        let fd, _ = Unix.accept listen in
        let dec = P.Req_decoder.create () in
        let rec await () =
          match P.Req_decoder.next dec with
          | P.Dec_more ->
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              if n > 0 then begin
                P.Req_decoder.feed_bytes dec buf ~off:0 ~len:n;
                await ()
              end
          | _ -> ()
        in
        await ();
        let out = Buffer.create 16 in
        P.encode_response_wire out P.Binary ~id:None P.Pong;
        Netio.write_all fd (Buffer.contents out);
        let silent, _ = Unix.accept listen in
        (* Swallow the request, answer nothing, hang up when the client does. *)
        let rec drain () = if Unix.read silent buf 0 (Bytes.length buf) > 0 then drain () in
        drain ();
        Unix.close silent;
        Unix.close fd
      in
      let server = Thread.create peer () in
      let connect () =
        match Netio.connect ~wire:P.Binary ~timeout_s:0.2 addr with
        | Ok p -> p
        | Error msg -> Alcotest.fail msg
      in
      let p = connect () in
      (match Netio.call p P.Ping with
      | Ok P.Pong -> ()
      | Ok r -> Alcotest.failf "PING answered %s" (P.print_response r)
      | Error msg -> Alcotest.failf "PING failed: %s" msg);
      Netio.close p;
      let q = connect () in
      let t0 = Unix.gettimeofday () in
      (match Netio.call q P.Ping with
      | Error _ -> ()
      | Ok r -> Alcotest.failf "silent peer answered %s" (P.print_response r));
      let waited = Unix.gettimeofday () -. t0 in
      Netio.close q;
      Thread.join server;
      Alcotest.(check bool) (Printf.sprintf "waited out the deadline (%.2fs)" waited) true
        (waited >= 0.15 && waited < 1.0);
      match Netio.connect ~wire:P.Binary ~timeout_s:0.2 "no-port" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad address accepted")

let suite =
  [ Helpers.tc "read retries past a receive timeout" test_read_retries_past_rcvtimeo;
    Helpers.tc "read returns 0 at EOF" test_read_eof_is_zero;
    Helpers.tc "read delivers already-available data" test_read_delivers_available_data;
    Helpers.tc "read ~deadline re-raises EAGAIN on expiry" test_read_deadline_expires;
    Helpers.tc "read ~deadline still delivers late bytes" test_read_deadline_delivers_late_bytes;
    Helpers.tc "read_nb: Would_block / Data / Eof" test_read_nb;
    Helpers.tc "write_nb: 0 on a full buffer, resumes after drain" test_write_nb_fills_then_blocks;
    Helpers.tc "Poll.wait: per-slot readiness and timeout" test_poll_readiness;
    Helpers.tc "Poll.wait: POLLOUT and hangup" test_poll_pollout_and_err;
    Helpers.tc "call: one request answered, a silent peer errs by the deadline"
      test_call_answers_then_times_out ]
