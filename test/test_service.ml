(* End-to-end tests of the kexd network service on an ephemeral port: real
   sockets, real worker domains, and the paper's resilience boundary — kill
   k-1 workers and no client ever sees a failure; kill k and the service
   stalls (requests time out) yet still shuts down cleanly. *)

module Server = Kex_service.Server
module P = Kex_service.Protocol

open Wire_client

let quiet = { Server.default_config with port = 0; log = (fun _ -> ()) }

let with_server cfg f =
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop ~drain_timeout_s:1. t) (fun () -> f t)

let stat name t =
  match List.assoc_opt name (Server.stats_pairs t) with
  | Some v -> v
  | None -> Alcotest.failf "STATS has no %S" name

(* The delta of a STATS counter across [f]. *)
let stat_delta t names f =
  let before = List.map (fun name -> stat name t) names in
  f ();
  List.map2 (fun name b -> (name, stat name t - b)) names before

(* --------------------------------- tests -------------------------------- *)

let test_crud_over_socket () =
  with_server { quiet with workers = 2; k = 1 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          assert_resp "ping" P.Pong (rpc c P.Ping);
          assert_resp "get missing" (P.Value None) (rpc c (P.Get "a"));
          assert_resp "set" P.Ok (rpc c (P.Set ("a", "value with\nnewline and : colon")));
          assert_resp "get" (P.Value (Some "value with\nnewline and : colon")) (rpc c (P.Get "a"));
          assert_resp "update fresh" (P.Int 5) (rpc c (P.Update ("ctr", 5)));
          assert_resp "update again" (P.Int 3) (rpc c (P.Update ("ctr", -2)));
          assert_resp "del" (P.Deleted true) (rpc c (P.Del "a"));
          assert_resp "del again" (P.Deleted false) (rpc c (P.Del "a"));
          (match rpc c P.Stats with
          | P.Stats_reply pairs ->
              let get name =
                match List.assoc_opt name pairs with
                | Some v -> v
                | None -> Alcotest.failf "no %S in STATS" name
              in
              Alcotest.(check bool) "served some ops" true (get "served" >= 6);
              Alcotest.(check int) "no deaths" 0 (get "deaths");
              Alcotest.(check int) "k" 1 (get "k")
          | r -> Alcotest.failf "STATS answered %s" (P.print_response r));
          (* A framed but unparseable payload gets an ERR, not a hangup. *)
          send_raw c "6\nFLY me";
          match recv c with
          | P.Error _ -> ()
          | r -> Alcotest.failf "garbage payload answered %s" (P.print_response r)))

let test_garbage_stream_dropped () =
  with_server { quiet with workers = 1; k = 1 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          send_raw c "this is not a frame header\n";
          (* An untrusted stream gets one ERR, then the hangup. *)
          (match recv c with
          | P.Error _ -> ()
          | r -> Alcotest.failf "garbage stream answered %s" (P.print_response r));
          Alcotest.(check int) "connection dropped" 0 (Unix.read c.fd c.buf 0 1)))

(* Kill k-1 of the workers mid-load: every request still succeeds, the
   counter is exact (each increment applied exactly once), and the deaths
   are visible in STATS.  The paper's resilience claim, on the wire. *)
let test_kill_k_minus_1_zero_failures () =
  let workers = 3 and k = 2 and clients = 2 and per = 60 in
  with_server { quiet with workers; k } (fun t ->
      let failures = Atomic.make 0 in
      let client_loop i () =
        let c = connect (Server.port t) in
        Fun.protect ~finally:(fun () -> close c) (fun () ->
            for j = 1 to per do
              (match rpc c (P.Update ("ctr", 1)) with
              | P.Int _ -> ()
              | r ->
                  ignore (Atomic.fetch_and_add failures 1);
                  Printf.eprintf "client %d req %d: %s\n%!" i j (P.print_response r));
              (* Kill a worker (k-1 = 1 of them) a little into the load. *)
              if i = 0 && j = 10 then
                match Server.kill_worker t 0 with
                | Ok () -> ()
                | Error msg -> Alcotest.fail msg
            done)
      in
      let ds = List.init clients (fun i -> Domain.spawn (client_loop i)) in
      List.iter Domain.join ds;
      Alcotest.(check int) "zero client-visible failures" 0 (Atomic.get failures);
      (* Drive until the victim actually pops an item and dies (the flag
         takes effect at its next admission), then confirm exactness. *)
      let admin = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close admin) (fun () ->
          let extra = ref 0 in
          while stat "deaths" t < 1 && !extra < 2000 do
            (match rpc admin (P.Update ("ctr", 1)) with
            | P.Int _ -> incr extra
            | r -> Alcotest.failf "drive req failed: %s" (P.print_response r))
          done;
          Alcotest.(check int) "exactly one death" 1 (stat "deaths" t);
          assert_resp "counter exact despite the crash"
            (P.Value (Some (string_of_int ((clients * per) + !extra))))
            (rpc admin (P.Get "ctr"));
          Alcotest.(check bool) "re-dispatch happened" true (stat "redispatched" t >= 1)))

(* Kill k workers: every admission slot is wedged, so the next store
   operation stalls (client times out) — and the server still stops
   cleanly, which is the shutdown path the CI smoke job relies on. *)
let test_kill_k_stalls_but_stops () =
  let workers = 2 and k = 2 in
  let t = Server.start { quiet with workers; k } in
  let c = connect (Server.port t) in
  (* Sanity: service is up before the kills. *)
  assert_resp "pre-kill op" (P.Int 1) (rpc c (P.Update ("ctr", 1)));
  (match Server.kill_worker t 0 with Ok () -> () | Error e -> Alcotest.fail e);
  (match Server.kill_worker t 1 with Ok () -> () | Error e -> Alcotest.fail e);
  (match Server.kill_worker t 7 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-range kill accepted");
  Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 1.0;
  (match rpc c (P.Update ("ctr", 1)) with
  | exception Timeout -> ()
  | r -> Alcotest.failf "stalled service answered %s" (P.print_response r));
  (* Both deaths were counted on the way into the morgue. *)
  let deadline = Unix.gettimeofday () +. 5. in
  while stat "deaths" t < k && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Alcotest.(check int) "k deaths" k (stat "deaths" t);
  (* PING and STATS are served inline by the reactor, so the control plane
     outlives the stalled data plane. *)
  Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 0.;
  let admin = connect (Server.port t) in
  assert_resp "ping during stall" P.Pong (rpc admin P.Ping);
  close admin;
  close c;
  (* stop must reap the morgue, answer the undispatched request, and join
     every domain — a hang here is the bug this test pins down. *)
  Server.stop ~drain_timeout_s:0.5 t;
  Alcotest.(check int) "still k deaths after stop" k (stat "deaths" t)

(* A window of tagged requests shipped as one write comes back as tagged
   responses matched by id (order unspecified), coexisting with untagged
   requests on the same connection — the pipelined wire contract, e2e. *)
let test_pipelined_window () =
  with_server { quiet with workers = 2; k = 2; shards = 2 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let w = 16 in
          send c
            (List.init w (fun id -> (Some id, P.Update (Printf.sprintf "pk%d" (id mod 5), 1))));
          let seen = Hashtbl.create w in
          for _ = 1 to w do
            let id, resp = recv_tagged c in
            if Hashtbl.mem seen id then Alcotest.failf "duplicate response id %d" id;
            Hashtbl.replace seen id resp
          done;
          for id = 0 to w - 1 do
            match Hashtbl.find_opt seen id with
            | Some (P.Int _) -> ()
            | Some r -> Alcotest.failf "id %d answered %s" id (P.print_response r)
            | None -> Alcotest.failf "no response for id %d" id
          done;
          (* The v1 untagged exchange still works on the same connection. *)
          assert_resp "untagged after pipelined" P.Pong (rpc c P.Ping);
          (* The server amortized admissions: fewer batches than requests. *)
          Alcotest.(check bool) "batched admissions" true (stat "batches" t >= 1)))

(* Shard isolation: kill ALL k workers of the shard owning one key — that
   key's operations stall, while a key in another shard keeps being served
   with zero failures.  (And with only k-1 of them dead, nothing fails
   anywhere: the first half of the test.) *)
let test_shard_kill_isolated () =
  let workers = 2 and k = 2 and shards = 2 in
  with_server { quiet with workers; k; shards } (fun t ->
      (* Pick one key per shard via the server's own routing. *)
      let key_in s =
        let rec go i =
          let key = Printf.sprintf "key%d" i in
          if Server.shard_of_key t key = s then key else go (i + 1)
        in
        go 0
      in
      let k0 = key_in 0 and k1 = key_in 1 in
      let sent0 = ref 0 and sent1 = ref 0 in
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let bump c key counter =
            match rpc c (P.Update (key, 1)) with
            | P.Int _ -> incr counter
            | r -> Alcotest.failf "UPDATE %s failed: %s" key (P.print_response r)
          in
          (* Phase 1: k-1 deaths in shard 0 (global ids 0..workers-1 are
             shard 0's pool) are client-invisible on BOTH shards. *)
          for gid = 0 to k - 2 do
            match Server.kill_worker t gid with Ok () -> () | Error e -> Alcotest.fail e
          done;
          let extra = ref 0 in
          while stat "deaths" t < k - 1 && !extra < 2000 do
            bump c k0 sent0;
            bump c k1 sent1;
            incr extra
          done;
          Alcotest.(check int) "k-1 deaths" (k - 1) (stat "deaths" t);
          for _ = 1 to 30 do
            bump c k0 sent0;
            bump c k1 sent1
          done;
          (* Phase 2: kill the rest of shard 0's pool — its k-th failure. *)
          for gid = k - 1 to workers - 1 do
            match Server.kill_worker t gid with Ok () -> () | Error e -> Alcotest.fail e
          done;
          Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 1.0;
          (match rpc c (P.Update (k0, 1)) with
          | exception Timeout -> ()
          | P.Int _ ->
              (* The victim hadn't reached its admission boundary yet; one
                 more op must find the shard wedged. *)
              incr sent0;
              (match rpc c (P.Update (k0, 1)) with
              | exception Timeout -> ()
              | r -> Alcotest.failf "wedged shard answered %s" (P.print_response r))
          | r -> Alcotest.failf "wedged shard answered %s" (P.print_response r));
          (* Shard 1 never notices: a fresh connection serves its key with
             exact counts.  (Fresh because c still owes the stalled shard-0
             reply, and an untagged reply arriving late would answer the
             wrong request.) *)
          let admin = connect (Server.port t) in
          Fun.protect ~finally:(fun () -> close admin) (fun () ->
              for _ = 1 to 20 do
                bump admin k1 sent1
              done;
              assert_resp "shard-1 counter exact"
                (P.Value (Some (string_of_int !sent1)))
                (rpc admin (P.Get k1));
              Alcotest.(check int) "all of shard 0's pool died" workers (stat "deaths" t))))

(* The headline of the wait-free read plane, on the wire: kill ALL k workers
   so every admission slot is wedged and mutations time out — yet GETs keep
   answering, exactly, because the reactor serves them from the shard's
   committed head without entering admission. *)
let test_get_survives_wedged_shard () =
  let workers = 2 and k = 2 in
  with_server { quiet with workers; k } (fun t ->
      (* Seed state while the shard is alive. *)
      let c = connect (Server.port t) in
      assert_resp "seed set" P.Ok (rpc c (P.Set ("a", "alive")));
      assert_resp "seed ctr" (P.Int 1) (rpc c (P.Update ("ctr", 1)));
      (match Server.kill_worker t 0 with Ok () -> () | Error e -> Alcotest.fail e);
      (match Server.kill_worker t 1 with Ok () -> () | Error e -> Alcotest.fail e);
      (* Drive mutations until the shard is actually wedged (each kill takes
         effect at the victim's next admission). *)
      Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 1.0;
      let rec wedge tries =
        if tries > 10 then Alcotest.fail "shard never wedged"
        else
          match rpc c (P.Update ("ctr", 1)) with
          | exception Timeout -> ()
          | P.Int _ -> wedge (tries + 1)
          | r -> Alcotest.failf "mutation answered %s" (P.print_response r)
      in
      wedge 0;
      let deadline = Unix.gettimeofday () +. 5. in
      while stat "deaths" t < k && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      Alcotest.(check int) "all k workers dead" k (stat "deaths" t);
      (* Fresh connection (c still owes the stalled update's reply): GETs
         must answer, with the exact acknowledged values, 50 times in a row. *)
      let reader = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close reader) (fun () ->
          for i = 1 to 50 do
            assert_resp (Printf.sprintf "wedged GET %d" i) (P.Value (Some "alive"))
              (rpc reader (P.Get "a"))
          done;
          assert_resp "wedged GET missing" (P.Value None) (rpc reader (P.Get "nope"));
          (match rpc reader (P.Get "ctr") with
          | P.Value (Some _) -> ()
          | r -> Alcotest.failf "ctr GET answered %s" (P.print_response r));
          Alcotest.(check bool) "GETs served inline" true (stat "inline_reads" t >= 52));
      (* Mutations are still dead: a second fresh connection's SET times out. *)
      let writer = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close writer) (fun () ->
          Unix.setsockopt_float writer.fd Unix.SO_RCVTIMEO 1.0;
          match rpc writer (P.Set ("b", "2")) with
          | exception Timeout -> ()
          | r -> Alcotest.failf "wedged SET answered %s" (P.print_response r));
      close c)

(* Enqueue-time latency accounting (not send-time), by Little's law on
   the W=16 run: with latency charged from enqueue, latency times
   throughput is the number of requests in flight, here 2 connections x
   16.  The median sits below the mean, so p50 x throughput must reach a
   quarter of that.  A loadgen that stopped charging in-window time (the
   flattering stamp-at-socket-write bug) lands near 1/16 of it. *)
let test_pipelined_latency_honest () =
  with_server { quiet with workers = 2; k = 2 } (fun t ->
      let base =
        { Kex_service.Loadgen.default_config with
          port = Server.port t;
          connections = 2;
          duration_s = 0.7;
          keys = 16;
          seed = 11 }
      in
      let s1 = Kex_service.Loadgen.run { base with pipeline = 1 } in
      let s16 = Kex_service.Loadgen.run { base with pipeline = 16 } in
      Alcotest.(check int) "W=1 zero errors" 0 s1.Kex_service.Loadgen.errors;
      Alcotest.(check int) "W=16 zero errors" 0 s16.Kex_service.Loadgen.errors;
      Alcotest.(check bool) "both made progress" true
        (s1.Kex_service.Loadgen.requests > 0 && s16.Kex_service.Loadgen.requests > 0);
      let in_flight = 2 * 16 in
      let littles =
        float_of_int s16.Kex_service.Loadgen.p50_us *. 1e-6 *. s16.Kex_service.Loadgen.throughput_rps
      in
      if littles < 0.25 *. float_of_int in_flight then
        Alcotest.failf "p50 x throughput = %.2f requests, want >= %.2f (a quarter of %d in flight)"
          littles (0.25 *. float_of_int in_flight) in_flight)

(* Binary CRUD + SCAN end to end, with the id echoed from the header, and
   the malformed-frame contract: a length-intact bad frame gets an ERR and
   the connection keeps working; a broken stream gets one ERR then the
   hangup — same semantics as the text wire. *)
let test_binary_wire_e2e () =
  with_server { quiet with workers = 2; k = 2; shards = 2 } (fun t ->
      let c = connect ~wire:P.Binary (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          (match call c P.Ping with
          | None, P.Pong -> ()
          | _, r -> Alcotest.failf "binary PING answered %s" (P.print_response r));
          (match call c (P.Set ("a", "binary\x00value")) with
          | None, P.Ok -> ()
          | _, r -> Alcotest.failf "binary SET answered %s" (P.print_response r));
          (match call ~id:99 c (P.Get "a") with
          | Some 99, P.Value (Some "binary\x00value") -> ()
          | id, r ->
              Alcotest.failf "binary GET answered (%s) %s"
                (match id with Some i -> string_of_int i | None -> "-")
                (P.print_response r));
          (match call c (P.Update ("ctr", 4)) with
          | None, P.Int 4 -> ()
          | _, r -> Alcotest.failf "binary UPDATE answered %s" (P.print_response r));
          for i = 0 to 4 do
            match call c (P.Set (Printf.sprintf "scan%d" i, string_of_int i)) with
            | None, P.Ok -> ()
            | _, r -> Alcotest.failf "scan seed answered %s" (P.print_response r)
          done;
          (match call c (P.Scan ("scan", 10)) with
          | None, P.Range kvs ->
              Alcotest.(check (list (pair string string)))
                "binary SCAN"
                (List.init 5 (fun i -> (Printf.sprintf "scan%d" i, string_of_int i)))
                kvs
          | _, r -> Alcotest.failf "binary SCAN answered %s" (P.print_response r));
          (* Unknown opcode, intact length: ERR, then business as usual. *)
          send_raw c "\xB2\x7F\x00\x00\x00\x00\x00\x00\x04junk";
          (match recv_frame c with
          | _, P.Error _ -> ()
          | _, r -> Alcotest.failf "bad opcode answered %s" (P.print_response r));
          (match call c P.Ping with
          | None, P.Pong -> ()
          | _, r -> Alcotest.failf "post-skip PING answered %s" (P.print_response r)));
      (* Bad magic mid-stream on a sniffed-binary connection: ERR then close. *)
      let c2 = connect ~wire:P.Binary (Server.port t) in
      Fun.protect ~finally:(fun () -> close c2) (fun () ->
          (match call c2 P.Ping with
          | None, P.Pong -> ()
          | _, r -> Alcotest.failf "c2 PING answered %s" (P.print_response r));
          send_raw c2 "\x00garbage";
          (match recv_frame c2 with
          | _, P.Error _ -> ()
          | _, r -> Alcotest.failf "broken stream answered %s" (P.print_response r));
          Alcotest.(check int) "connection dropped" 0 (Unix.read c2.fd c2.buf 0 1)))

(* An oversized declared frame must not wedge or OOM the server: ERR (or
   straight hangup), and a fresh connection still gets served. *)
let test_oversized_frame_rejected () =
  with_server { quiet with workers = 1; k = 1 } (fun t ->
      (* Text wire. *)
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          send_raw c (string_of_int (P.max_frame + 1) ^ "\n");
          (match recv c with
          | P.Error _ -> ()
          | r -> Alcotest.failf "oversized text frame answered %s" (P.print_response r)
          | exception Failure _ -> ());
          Alcotest.(check int) "text conn dropped" 0
            (try Unix.read c.fd c.buf 0 1 with Unix.Unix_error _ -> 0));
      (* Binary wire: header declaring a > max_frame body. *)
      let c2 = connect ~wire:P.Binary (Server.port t) in
      Fun.protect ~finally:(fun () -> close c2) (fun () ->
          let b = Buffer.create 16 in
          Buffer.add_string b "\xB2\x01\x00\x00\x00\x00\x00\x00";
          let rec add_uvarint n =
            if n < 0x80 then Buffer.add_char b (Char.chr n)
            else begin
              Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
              add_uvarint (n lsr 7)
            end
          in
          add_uvarint (P.max_frame + 1);
          send_raw c2 (Buffer.contents b);
          (match recv_frame c2 with
          | _, P.Error _ -> ()
          | _, r -> Alcotest.failf "oversized binary frame answered %s" (P.print_response r)
          | exception Failure _ -> ());
          Alcotest.(check int) "binary conn dropped" 0
            (try Unix.read c2.fd c2.buf 0 1 with Unix.Unix_error _ -> 0));
      (* The server is still healthy for the next client. *)
      let c3 = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c3) (fun () ->
          assert_resp "server still up" P.Pong (rpc c3 P.Ping)))

(* SCAN off the wait-free read plane: seed a range spanning both shards, wedge
   shard 0's whole worker pool, and the full ordered range still comes back
   consistent — the acceptance criterion for the ordered-read story. *)
let test_scan_survives_wedged_shard () =
  let workers = 2 and k = 2 and shards = 2 in
  with_server { quiet with workers; k; shards } (fun t ->
      let expected = List.init 20 (fun i -> (Printf.sprintf "s%02d" i, Printf.sprintf "v%d" i)) in
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          List.iter (fun (k, v) -> assert_resp ("seed " ^ k) P.Ok (rpc c (P.Set (k, v)))) expected;
          (* Both shards hold part of the range — otherwise the wedge proves
             nothing. *)
          let shard_hits = Array.make shards 0 in
          List.iter
            (fun (k, _) -> shard_hits.(Server.shard_of_key t k) <- 1 + shard_hits.(Server.shard_of_key t k))
            expected;
          Alcotest.(check bool) "range spans both shards" true
            (Array.for_all (fun n -> n > 0) shard_hits);
          (match rpc c (P.Scan ("s", 20)) with
          | P.Range kvs -> Alcotest.(check (list (pair string string))) "healthy SCAN" expected kvs
          | r -> Alcotest.failf "healthy SCAN answered %s" (P.print_response r));
          (* Wedge shard 0: kill its whole pool, then drive mutations on a
             shard-0 key (sorting before "s") until one stalls. *)
          let key0 =
            let rec go i =
              let key = Printf.sprintf "a%d" i in
              if Server.shard_of_key t key = 0 then key else go (i + 1)
            in
            go 0
          in
          for gid = 0 to workers - 1 do
            match Server.kill_worker t gid with Ok () -> () | Error e -> Alcotest.fail e
          done;
          Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 1.0;
          let rec wedge tries =
            if tries > 10 then Alcotest.fail "shard never wedged"
            else
              match rpc c (P.Update (key0, 1)) with
              | exception Timeout -> ()
              | P.Int _ -> wedge (tries + 1)
              | r -> Alcotest.failf "mutation answered %s" (P.print_response r)
          in
          wedge 0;
          (* Fresh connections (text and binary): the whole ordered range,
             including the wedged shard's keys, exactly as acknowledged. *)
          let reader = connect (Server.port t) in
          Fun.protect ~finally:(fun () -> close reader) (fun () ->
              match rpc reader (P.Scan ("s", 20)) with
              | P.Range kvs ->
                  Alcotest.(check (list (pair string string))) "wedged SCAN" expected kvs
              | r -> Alcotest.failf "wedged SCAN answered %s" (P.print_response r));
          let breader = connect ~wire:P.Binary (Server.port t) in
          Fun.protect ~finally:(fun () -> close breader) (fun () ->
              match call breader (P.Scan ("s", 20)) with
              | None, P.Range kvs ->
                  Alcotest.(check (list (pair string string))) "wedged binary SCAN" expected kvs
              | _, r -> Alcotest.failf "wedged binary SCAN answered %s" (P.print_response r))))

(* The YCSB stack end to end: Zipfian keys, RMW and SCAN in the mix, binary
   wire, pipelined — zero errors and progress. *)
let test_loadgen_binary_ycsb () =
  with_server { quiet with workers = 2; k = 2; shards = 2 } (fun t ->
      let cfg =
        { Kex_service.Loadgen.default_config with
          port = Server.port t;
          connections = 2;
          duration_s = 0.6;
          keys = 200;
          dist = Kex_service.Keydist.Zipfian;
          mix = [ ("get", 60); ("set", 20); ("rmw", 10); ("scan", 10) ];
          wire = P.Binary;
          pipeline = 8;
          seed = 5 }
      in
      let s = Kex_service.Loadgen.run cfg in
      Alcotest.(check int) "zero errors" 0 s.Kex_service.Loadgen.errors;
      Alcotest.(check bool) "made progress" true (s.Kex_service.Loadgen.requests > 0);
      (* Every mixed kind actually ran. *)
      List.iter
        (fun kind ->
          match
            List.find_opt (fun b -> b.Kex_service.Loadgen.label = kind) s.Kex_service.Loadgen.ops
          with
          | Some b -> Alcotest.(check bool) (kind ^ " ran") true (b.Kex_service.Loadgen.requests > 0)
          | None -> Alcotest.failf "no %s bucket" kind)
        [ "get"; "set"; "rmw"; "scan" ])

(* [kexd loadgen --json]'s run record: schema v6, and the [totals] fields
   CI's floor (.github/serve-floor.jq) reads carry the summary exactly. *)
let test_loadgen_run_record () =
  with_server { quiet with workers = 2; k = 2; shards = 2 } (fun t ->
      let module L = Kex_service.Loadgen in
      let module J = Kex_service.Json in
      let cfg =
        { L.default_config with
          port = Server.port t;
          connections = 1;
          duration_s = 0.3;
          keys = 100;
          pipeline = 4;
          phase_marks = [ 0.15 ];
          seed = 7 }
      in
      let s = L.run cfg in
      let file = Filename.temp_file "kexd-loadgen" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove file) (fun () ->
          J.to_file file (L.to_json cfg s);
          let text = In_channel.with_open_bin file In_channel.input_all in
          let doc =
            match J.parse text with Ok d -> d | Error e -> Alcotest.failf "record: %s" e
          in
          Alcotest.(check (option string)) "schema" (Some "kexclusion-serve/v6")
            (J.member_str "schema" doc);
          let totals =
            match J.member "totals" doc with Some o -> o | None -> Alcotest.fail "no totals"
          in
          let int name = J.member_int name totals in
          Alcotest.(check (option int)) "requests" (Some s.L.requests) (int "requests");
          Alcotest.(check (option int)) "errors" (Some s.L.errors) (int "errors");
          Alcotest.(check (option int)) "expected_errors" (Some s.L.expected_errors)
            (int "expected_errors");
          Alcotest.(check (option (float 1e-9))) "wall_s" (Some s.L.wall_s)
            (J.member_number "wall_s" totals);
          Alcotest.(check bool) "made progress" true (s.L.requests > s.L.errors);
          Alcotest.(check int) "one bucket per phase" (List.length s.L.phases)
            (List.length (J.member_list "phases" doc));
          Alcotest.(check (option int)) "config conns_per_client" (Some cfg.L.conns_per_client)
            (Option.bind (J.member "config" doc) (J.member_int "conns_per_client"))))

(* ----------------------------- reactor plane ---------------------------- *)

(* The wire contract over the reactor connection plane: CRUD, errors, the
   untagged v1 exchange, and the reactor counters in STATS. *)
let test_reactor_crud () =
  with_server { quiet with workers = 2; k = 1 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          assert_resp "ping" P.Pong (rpc c P.Ping);
          assert_resp "set" P.Ok (rpc c (P.Set ("a", "via reactor\nwith newline")));
          assert_resp "get" (P.Value (Some "via reactor\nwith newline")) (rpc c (P.Get "a"));
          assert_resp "update" (P.Int 7) (rpc c (P.Update ("ctr", 7)));
          assert_resp "del" (P.Deleted true) (rpc c (P.Del "a"));
          send_raw c "6\nFLY me";
          (match recv c with
          | P.Error _ -> ()
          | r -> Alcotest.failf "garbage payload answered %s" (P.print_response r));
          match rpc c P.Stats with
          | P.Stats_reply pairs ->
              let get name =
                match List.assoc_opt name pairs with
                | Some v -> v
                | None -> Alcotest.failf "no %S in STATS" name
              in
              Alcotest.(check int) "both reactors running" 2 (get "reactors");
              Alcotest.(check bool) "wakeups happened" true (get "reactor_wakeups" > 0)
          | r -> Alcotest.failf "STATS answered %s" (P.print_response r)))

let test_reactor_pipelined_window () =
  with_server { quiet with workers = 2; k = 2; shards = 2 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let w = 32 in
          send c
            (List.init w (fun id -> (Some id, P.Update (Printf.sprintf "rk%d" (id mod 5), 1))));
          let seen = Hashtbl.create w in
          for _ = 1 to w do
            let id, resp = recv_tagged c in
            if Hashtbl.mem seen id then Alcotest.failf "duplicate response id %d" id;
            Hashtbl.replace seen id resp
          done;
          for id = 0 to w - 1 do
            match Hashtbl.find_opt seen id with
            | Some (P.Int _) -> ()
            | Some r -> Alcotest.failf "id %d answered %s" id (P.print_response r)
            | None -> Alcotest.failf "no response for id %d" id
          done;
          assert_resp "untagged after pipelined" P.Pong (rpc c P.Ping)))

(* The wedged-shard availability headline on a single reactor: all k
   workers dead, mutations time out, and reactor-inline GETs keep answering
   the exact acknowledged values. *)
let test_reactor_get_survives_wedged_shard () =
  let workers = 2 and k = 2 in
  with_server { quiet with workers; k; reactors = 1 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          assert_resp "seed set" P.Ok (rpc c (P.Set ("a", "alive")));
          (match Server.kill_worker t 0 with Ok () -> () | Error e -> Alcotest.fail e);
          (match Server.kill_worker t 1 with Ok () -> () | Error e -> Alcotest.fail e);
          Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 1.0;
          let rec wedge tries =
            if tries > 10 then Alcotest.fail "shard never wedged"
            else
              match rpc c (P.Update ("ctr", 1)) with
              | exception Timeout -> ()
              | P.Int _ -> wedge (tries + 1)
              | r -> Alcotest.failf "mutation answered %s" (P.print_response r)
          in
          wedge 0;
          let deadline = Unix.gettimeofday () +. 5. in
          while stat "deaths" t < k && Unix.gettimeofday () < deadline do
            Thread.delay 0.02
          done;
          Alcotest.(check int) "all k workers dead" k (stat "deaths" t);
          (* The reactor loop never blocked on the wedged update (it was
             dispatched, not awaited), so the loop's other connections keep
             being answered. *)
          let reader = connect (Server.port t) in
          Fun.protect ~finally:(fun () -> close reader) (fun () ->
              for i = 1 to 50 do
                assert_resp (Printf.sprintf "wedged GET %d" i) (P.Value (Some "alive"))
                  (rpc reader (P.Get "a"))
              done;
              Alcotest.(check bool) "GETs served inline" true (stat "inline_reads" t >= 50))))

(* Backpressure e2e: a client that never reads while the reactor owes it
   data must be paused at the output watermark and eventually dropped —
   without stalling other connections on the same reactor and without
   leaking its connection slot. *)
let test_reactor_slow_client_dropped () =
  with_server
    { quiet with
      workers = 2; k = 1; reactors = 1; out_hwm = 2048; slow_drain_s = 0.3 }
    (fun t ->
      let admin = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close admin) (fun () ->
          let big = String.make 4096 'v' in
          assert_resp "seed big value" P.Ok (rpc admin (P.Set ("big", big)));
          (* The slow client asks for ~16 MB of responses and reads none —
             enough that the kernel's socket buffers can't hide it and the
             reactor's own output buffer must absorb the overflow. *)
          let slow = connect (Server.port t) in
          send slow (List.init 4000 (fun id -> (Some id, P.Get "big")));
          (* Meanwhile the healthy connection on the same reactor keeps
             answering promptly. *)
          for i = 1 to 20 do
            assert_resp (Printf.sprintf "healthy ping %d" i) P.Pong (rpc admin P.Ping);
            Thread.delay 0.01
          done;
          (* The drop must land while the client still refuses to read: wait
             for the connection count to settle back to the healthy
             connection alone (reading the slow socket here would drain the
             reactor's buffer and rescue the client from the watermark). *)
          let deadline = Unix.gettimeofday () +. 5. in
          let rec settle () =
            if stat "open_conns" t <= 1 then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.failf "slow client never dropped: open_conns = %d"
                (stat "open_conns" t)
            else begin
              Thread.delay 0.05;
              settle ()
            end
          in
          settle ();
          (* The client sees the drop as EOF/reset within a bounded window
             once it finally drains what the kernel already buffered. *)
          Unix.setsockopt_float slow.fd Unix.SO_RCVTIMEO 5.0;
          let junk = Bytes.create 65536 in
          let rec drained () =
            match Unix.read slow.fd junk 0 (Bytes.length junk) with
            | 0 -> ()
            | _ -> drained ()
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Alcotest.fail "dropped connection still readable after 5s"
          in
          drained ();
          close slow))

(* Chaos kill-worker under 128 concurrent connections on the reactor plane:
   k-1 deaths must stay client-invisible — zero errors across every
   multiplexed connection. *)
let test_reactor_chaos_kill_c128 () =
  let chaos =
    [ { Kex_service.Chaos.at_s = 0.4; action = Kex_service.Chaos.Kill_worker; target = None } ]
  in
  with_server { quiet with workers = 2; k = 2; shards = 2; chaos } (fun t ->
      let cfg =
        { Kex_service.Loadgen.default_config with
          port = Server.port t;
          connections = 4;
          conns_per_client = 32;
          pipeline = 4;
          duration_s = 1.2;
          keys = 200;
          mix = [ ("get", 70); ("set", 20); ("update", 10) ];
          seed = 11 }
      in
      let s = Kex_service.Loadgen.run cfg in
      Alcotest.(check int) "zero client-visible errors" 0 s.Kex_service.Loadgen.errors;
      Alcotest.(check bool) "made progress" true (s.Kex_service.Loadgen.requests > 1000);
      let deadline = Unix.gettimeofday () +. 3. in
      while stat "deaths" t < 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      Alcotest.(check int) "the kill actually landed" 1 (stat "deaths" t))

(* One socket write of [n] id-tagged UPDATEs of [key], as the reactor sees
   it: one read, so one batched dispatch. *)
let send_updates c ~n key = send c (List.init n (fun id -> (Some id, P.Update (key, 1))))

(* Send one read of [n] UPDATEs of [key] and require every id answered
   exactly once with an integer. *)
let updates_answered c ~n key =
  send_updates c ~n key;
  let acked = Array.make n false in
  for _ = 1 to n do
    match recv_tagged c with
    | id, P.Int _ when id >= 0 && id < n && not acked.(id) -> acked.(id) <- true
    | id, r -> Alcotest.failf "id %d answered %s" id (P.print_response r)
  done

(* A quiet shard's read runs on its reactor: the 64 mutations of one read
   take at most ceil(64 / 32) no-wait admissions (32 = the server's
   per-admission batch cap), none refused, and nothing crosses to a
   worker — no ring push, no mailbox post.  The counter is exact. *)
let test_reactor_read_is_one_dispatch () =
  with_server { quiet with workers = 4; k = 2 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 5.0;
          (* A round trip first, so the connection's own registration post
             is behind us. *)
          assert_resp "ping" P.Pong (rpc c P.Ping);
          let n = 64 in
          let deltas =
            stat_delta t
              [ "batches"; "inline_admissions"; "inline_aborts"; "ring_pushes"; "reactor_posts" ]
              (fun () -> updates_answered c ~n "ctr")
          in
          let d name = List.assoc name deltas in
          if d "inline_admissions" < 1 || d "inline_admissions" > 2 then
            Alcotest.failf "64 UPDATEs took %d inline admissions (want 1..2)" (d "inline_admissions");
          Alcotest.(check int) "every batch inline" (d "inline_admissions") (d "batches");
          Alcotest.(check int) "no refused admission" 0 (d "inline_aborts");
          Alcotest.(check int) "no ring push" 0 (d "ring_pushes");
          Alcotest.(check int) "no mailbox post" 0 (d "reactor_posts");
          assert_resp "counter" (P.Value (Some "64")) (rpc c (P.Get "ctr"))))

(* A refused batch (the shard is owned elsewhere) is answered item by item
   with MOVED, and each refused request leaves its connection's pending
   count: the connection still closes at once when the client hangs up,
   instead of waiting out the reactor's drain grace. *)
let test_reactor_refused_read_closes_clean () =
  with_server { quiet with workers = 2; k = 1; shards = 2 } (fun t ->
      let self = Printf.sprintf "127.0.0.1:%d" (Server.port t) in
      Server.enable_cluster t ~node:0 ~addrs:[ self; "127.0.0.1:1" ];
      let rec key_in_shard i =
        let key = Printf.sprintf "key-%d" i in
        if Server.shard_of_key t key = 1 then key else key_in_shard (i + 1)
      in
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 5.0;
          let n = 64 in
          send_updates c ~n (key_in_shard 0);
          let seen = Array.make n false in
          for _ = 1 to n do
            match recv_tagged c with
            | id, P.Moved (1, _, "127.0.0.1:1") when id >= 0 && id < n && not seen.(id) ->
                seen.(id) <- true
            | id, r -> Alcotest.failf "id %d answered %s" id (P.print_response r)
          done;
          Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
          let t0 = Unix.gettimeofday () in
          (match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
          | 0 -> ()
          | _ -> Alcotest.fail "bytes after the last MOVED"
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              Alcotest.fail "connection never closed");
          let waited = Unix.gettimeofday () -. t0 in
          if waited > 2. then
            Alcotest.failf "close took %.1fs: refused requests still counted as pending" waited))

(* ------------------------- batched wait-free GETs ------------------------ *)

(* One write of 64 tagged binary GETs with a PING, a length-intact
   malformed frame and two SETs among them, on the reactor plane.  The GETs
   are answered in three batches — the PING and the ERR are inline replies,
   so the GETs queued before each answer first — and the SETs ride the ring
   without splitting a batch.  Every id is answered exactly once with the
   key's own value, and the read-plane counters move by exactly the GETs
   and batches sent. *)
let test_reactor_get_batch_mixed () =
  with_server { quiet with workers = 2; k = 2 } (fun t ->
      let c = connect ~wire:P.Binary (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let value i = if i mod 4 = 3 then None else Some (Printf.sprintf "value-%d" i) in
          for i = 0 to 63 do
            match value i with
            | Some v -> (
                match call c (P.Set (Printf.sprintf "g%d" i, v)) with
                | _, P.Ok -> ()
                | _, r -> Alcotest.failf "seed answered %s" (P.print_response r))
            | None -> ()
          done;
          let b = Buffer.create 2048 in
          let get i = P.encode_request_wire b P.Binary ~id:(Some i) (P.Get (Printf.sprintf "g%d" i)) in
          for i = 0 to 19 do get i done;
          P.encode_request_wire b P.Binary ~id:(Some 100) P.Ping;
          for i = 20 to 39 do get i done;
          P.encode_request_wire b P.Binary ~id:(Some 101) (P.Set ("s1", "x"));
          (* Unknown opcode, intact length, id 102. *)
          Buffer.add_string b "\xB2\x7F\x01\x00\x00\x00\x00\x66\x04junk";
          for i = 40 to 63 do get i done;
          P.encode_request_wire b P.Binary ~id:(Some 103) (P.Set ("s2", "y"));
          let deltas =
            stat_delta t [ "served_get"; "inline_reads"; "read_batches" ] (fun () ->
                send_raw c (Buffer.contents b);
                let seen = Hashtbl.create 68 in
                for _ = 1 to 68 do
                  match recv_frame c with
                  | Some id, _ when Hashtbl.mem seen id -> Alcotest.failf "id %d answered twice" id
                  | Some id, r -> Hashtbl.replace seen id r
                  | None, r -> Alcotest.failf "untagged reply %s" (P.print_response r)
                done;
                for i = 0 to 63 do
                  match Hashtbl.find_opt seen i with
                  | Some (P.Value v) when v = value i -> ()
                  | Some r -> Alcotest.failf "GET g%d answered %s" i (P.print_response r)
                  | None -> Alcotest.failf "GET g%d unanswered" i
                done;
                (match (Hashtbl.find_opt seen 100, Hashtbl.find_opt seen 101, Hashtbl.find_opt seen 103)
                 with
                | Some P.Pong, Some P.Ok, Some P.Ok -> ()
                | _ -> Alcotest.fail "PING or SETs answered wrongly");
                match Hashtbl.find_opt seen 102 with
                | Some (P.Error _) -> ()
                | _ -> Alcotest.fail "malformed frame not answered ERR")
          in
          Alcotest.(check (list (pair string int)))
            "read-plane counters"
            [ ("served_get", 64); ("inline_reads", 64); ("read_batches", 3) ]
            deltas))

(* Untagged text: inline replies keep decode order even though the GETs
   are answered as a batch. *)
let test_untagged_gets_keep_order () =
  with_server { quiet with workers = 1; k = 1 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          assert_resp "seed a" P.Ok (rpc c (P.Set ("a", "1")));
          assert_resp "seed b" P.Ok (rpc c (P.Set ("b", "2")));
          send c [ (None, P.Get "a"); (None, P.Ping); (None, P.Get "b") ];
          assert_resp "first" (P.Value (Some "1")) (recv c);
          assert_resp "second" P.Pong (recv c);
          assert_resp "third" (P.Value (Some "2")) (recv c)))

(* A batch spanning all four shards answers each key from its own shard;
   in cluster mode an unowned key answers MOVED in its own position rather
   than the stale local copy. *)
let test_get_batch_across_shards () =
  with_server { quiet with workers = 1; k = 1; shards = 4; reactors = 1 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let keys = List.init 24 (fun i -> Printf.sprintf "key-%d" i) in
          let shards = List.sort_uniq compare (List.map (Server.shard_of_key t) keys) in
          Alcotest.(check (list int)) "keys span every shard" [ 0; 1; 2; 3 ] shards;
          List.iter (fun key -> assert_resp "seed" P.Ok (rpc c (P.Set (key, "v:" ^ key)))) keys;
          let ask keys =
            send c (List.map (fun k -> (None, P.Get k)) keys);
            List.map (fun _ -> recv c) keys
          in
          let batches0 = stat "read_batches" t in
          List.iter2
            (fun key r -> assert_resp key (P.Value (Some ("v:" ^ key))) r)
            keys (ask keys);
          Alcotest.(check int) "one batch" 1 (stat "read_batches" t - batches0);
          let self = Printf.sprintf "127.0.0.1:%d" (Server.port t) in
          Server.enable_cluster t ~node:0 ~addrs:[ self; "127.0.0.1:1" ];
          (* Shards 0 and 2 stay here; 1 and 3 now belong to the other node. *)
          List.iter2
            (fun key r ->
              match (Server.shard_of_key t key, r) with
              | (0 | 2), P.Value (Some v) when v = "v:" ^ key -> ()
              | ((1 | 3) as s), P.Moved (s', _, "127.0.0.1:1") when s = s' -> ()
              | s, r -> Alcotest.failf "%s (shard %d) answered %s" key s (P.print_response r))
            keys (ask keys)))

(* Bad configs are refused with Invalid_argument before anything starts:
   no socket is bound and no domain spawned. *)
let test_bad_configs_rejected () =
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun reactors ->
      refused
        (Printf.sprintf "Server.start reactors = %d" reactors)
        (fun () -> ignore (Server.start { quiet with reactors })))
    [ 0; -1 ];
  let lg = { Kex_service.Loadgen.default_config with port = 1; duration_s = 0.1 } in
  List.iter
    (fun (what, cfg) ->
      refused ("Loadgen.run " ^ what) (fun () -> ignore (Kex_service.Loadgen.run cfg)))
    [ ("connections = 0", { lg with connections = 0 });
      ("conns_per_client = 0", { lg with conns_per_client = 0 });
      ("pipeline = 0", { lg with pipeline = 0 });
      ("keys = 0", { lg with keys = 0 }) ]

(* Batched ring dispatch: while a kill is pending the shard keeps to the
   ring, so a read's 64 mutations enter it as one list with few wakeups,
   and workers sweep them in batches instead of the reactor running them.
   (The victim may claim one of the batches and re-dispatch it item by
   item before it dies, so the batch count is not pinned here.) *)
let test_pending_kill_read_rides_ring () =
  with_server { quiet with workers = 4; k = 2 } (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 5.0;
          (match Server.kill_worker t 3 with Ok () -> () | Error e -> Alcotest.fail e);
          let n = 64 in
          let deltas =
            stat_delta t [ "batches"; "inline_admissions"; "ring_pushes"; "ring_wakeups" ] (fun () ->
                updates_answered c ~n "ctr")
          in
          let d name = List.assoc name deltas in
          Alcotest.(check int) "nothing ran inline" 0 (d "inline_admissions");
          Alcotest.(check bool) "workers applied it in batches" true
            (d "batches" >= 2 && d "batches" < n);
          Alcotest.(check bool) "ring counted the pushes" true (d "ring_pushes" >= n);
          Alcotest.(check bool) "fewer wakeups than pushes" true (d "ring_wakeups" < d "ring_pushes");
          assert_resp "counter" (P.Value (Some "64")) (rpc c (P.Get "ctr"))))

(* A reply that leaves in a second write must not wait for the client's
   delayed ACK of the first.  PING is answered inline, HANDOFF's ERR comes
   back from a helper thread through the mailbox; with Nagle on the
   accepted socket, the second reply waits out the client's delayed ACK
   (~40 ms) whenever the first is still unacknowledged. *)
let test_second_write_not_delayed () =
  with_server { quiet with workers = 1; k = 1; reactors = 1 } (fun t ->
      let c = connect ~timeout_s:5. (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          for _ = 1 to 50 do
            assert_resp "warm-up" P.Pong (rpc c P.Ping)
          done;
          let trial () =
            let t0 = Unix.gettimeofday () in
            send c [ (Some 1, P.Ping); (Some 2, P.Handoff (0, "127.0.0.1:1")) ];
            let replies = List.sort compare [ recv_tagged c; recv_tagged c ] in
            let dt = Unix.gettimeofday () -. t0 in
            (match replies with
            | [ (1, P.Pong); (2, P.Error _) ] -> ()
            | _ -> Alcotest.fail "PING and HANDOFF answered wrongly");
            dt
          in
          let times = List.sort compare (List.init 20 (fun _ -> trial ())) in
          let median = List.nth times 10 in
          if median >= 0.010 then
            Alcotest.failf "PING + HANDOFF took %.1f ms median (want < 10 ms)" (median *. 1000.)))

(* Worker domains start on first use.  A healthy server applies every
   mutation on its reactors, so pipelined SETs and UPDATEs on both shards
   start none; KILL 0 starts shard 0's two workers and no others.  The
   counters keep every UPDATE acknowledged after the kill, while it is
   pending (shard 0 on the ring) and once the victim has died. *)
let test_workers_start_on_first_use () =
  with_server { quiet with workers = 2; k = 2; shards = 2 } (fun t ->
      let rec key_in s i =
        let key = Printf.sprintf "ctr%d" i in
        if Server.shard_of_key t key = s then key else key_in s (i + 1)
      in
      let keys = [| key_in 0 0; key_in 1 0 |] in
      let sent = [| 0; 0 |] in
      let c = connect ~timeout_s:5. (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          (* One pipelined write: [n] UPDATEs alternating over both
             counters, plus a SET per UPDATE on keys of both shards. *)
          let window n =
            let reqs =
              List.concat
                (List.init n (fun i ->
                     [ P.Update (keys.(i mod 2), 1); P.Set (Printf.sprintf "k%d" i, "v") ]))
            in
            send c (List.mapi (fun id r -> (Some id, r)) reqs);
            for _ = 1 to 2 * n do
              match recv_tagged c with
              | _, (P.Int _ | P.Ok) -> ()
              | id, r -> Alcotest.failf "id %d answered %s" id (P.print_response r)
            done;
            for i = 0 to n - 1 do
              sent.(i mod 2) <- sent.(i mod 2) + 1
            done
          in
          for _ = 1 to 8 do
            window 32
          done;
          Alcotest.(check int) "healthy traffic starts no worker" 0 (stat "worker_domains" t);
          assert_resp "KILL 0" P.Ok (rpc c (P.Kill 0));
          Alcotest.(check int) "KILL 0 starts shard 0's workers only" 2 (stat "worker_domains" t);
          let rounds = ref 0 in
          while stat "deaths" t < 1 && !rounds < 200 do
            window 16;
            incr rounds
          done;
          Alcotest.(check int) "the victim died" 1 (stat "deaths" t);
          window 16;
          Array.iteri
            (fun i key ->
              assert_resp ("counter " ^ key) (P.Value (Some (string_of_int sent.(i)))) (rpc c (P.Get key)))
            keys;
          Alcotest.(check int) "shard 1 still started none" 2 (stat "worker_domains" t)))

(* A burst of 512 connections lands at once: the listen backlog must hold
   every handshake the accept loop has not reached yet, because an
   overflowed SYN is retried only after a second.  The sockets connect
   without waiting, then each sends PING (the write waits for its
   handshake); every PONG must arrive within a second of the burst's
   start. *)
let test_connection_burst () =
  with_server quiet (fun t ->
      let n = 512 in
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port t) in
      let socks = Array.init n (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0) in
      Fun.protect
        ~finally:(fun () -> Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) socks)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          Array.iter
            (fun fd ->
              Unix.set_nonblock fd;
              try Unix.connect fd addr with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ())
            socks;
          let clients =
            Array.map
              (fun fd ->
                Unix.clear_nonblock fd;
                Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
                Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
                let c = { fd; wire = P.Text; dec = P.Resp_decoder.create P.Text; buf = Bytes.create 64 } in
                send c [ (None, P.Ping) ];
                c)
              socks
          in
          Array.iter (fun c -> assert_resp "burst PING" P.Pong (recv c)) clients;
          let took = Unix.gettimeofday () -. t0 in
          if took >= 1. then Alcotest.failf "%d PINGs took %.2f s from the burst (want < 1 s)" n took))

(* [stop] after [crash] closes the listener's fd once: after the crash, 32
   pipes take the lowest free descriptors, the old listener's number among
   them, and every one must still be open after [stop]. *)
let test_stop_after_crash_closes_listener_once () =
  let t = Server.start quiet in
  Server.crash t;
  let pipes = List.init 32 (fun _ -> Unix.pipe ()) in
  let fds = List.concat_map (fun (r, w) -> [ r; w ]) pipes in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () ->
      Server.stop ~drain_timeout_s:1. t;
      List.iter
        (fun fd ->
          match Unix.fstat fd with
          | _ -> ()
          | exception Unix.Unix_error (e, _, _) ->
              Alcotest.failf "stop closed a pipe opened after the crash: %s" (Unix.error_message e))
        fds)

(* One failed accept does not end the accept loop: with the process's fd
   table full, the accept of a connection fails (EMFILE); once the fds are
   free again, a new connection is answered within a second. *)
let test_accept_survives_fd_exhaustion () =
  with_server quiet (fun t ->
      let first = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let held = ref [] in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) (first :: !held))
        (fun () ->
          (try
             while true do
               held := Unix.dup first :: !held
             done
           with Unix.Unix_error (Unix.EMFILE, _, _) -> ());
          Unix.connect first (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port t));
          (* The listener wakes for [first] and finds no free fd. *)
          Thread.delay 0.2);
      let c = connect ~timeout_s:1. (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          assert_resp "PING after the fds are back" P.Pong (rpc c P.Ping)))

(* STATS carries the process's allocation: [gc_minor_words] and
   [gc_promoted_words] count every domain, the reactors' included, so a
   burst of SETs whose values stay live in the store moves both.  The
   forced minor collection brings every domain's counts up to date. *)
let test_stats_gc_words () =
  with_server quiet (fun t ->
      let c = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let value = String.make 800 'v' and sets = 2000 in
          let deltas =
            stat_delta t [ "gc_minor_words"; "gc_promoted_words" ] (fun () ->
                for i = 1 to sets do
                  assert_resp "set" P.Ok (rpc c (P.Set (Printf.sprintf "key%d" i, value)))
                done;
                Gc.minor ())
          in
          let delta name = List.assoc name deltas in
          (* Each SET's value alone is 100 words when decoded. *)
          if delta "gc_minor_words" < sets * 100 then
            Alcotest.failf "gc_minor_words grew by %d" (delta "gc_minor_words");
          if delta "gc_promoted_words" <= 0 then
            Alcotest.failf "gc_promoted_words grew by %d" (delta "gc_promoted_words")))

(* STATS [open_conns] counts the connections the reactors hold, the one
   asking included, and falls back as they close. *)
let test_open_conns_counts () =
  with_server quiet (fun t ->
      let admin = connect (Server.port t) in
      Fun.protect ~finally:(fun () -> close admin) (fun () ->
          let open_conns () =
            match rpc admin P.Stats with
            | P.Stats_reply pairs -> List.assoc "open_conns" pairs
            | r -> Alcotest.failf "STATS answered %s" (P.print_response r)
          in
          Alcotest.(check int) "the admin connection alone" 1 (open_conns ());
          let cs = List.init 5 (fun _ -> connect (Server.port t)) in
          (* A round trip on each: its reactor holds it. *)
          List.iter (fun c -> assert_resp "ping" P.Pong (rpc c P.Ping)) cs;
          Alcotest.(check int) "five more" 6 (open_conns ());
          List.iter close cs;
          let deadline = Unix.gettimeofday () +. 5. in
          let rec settle () =
            let n = open_conns () in
            if n = 1 then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.failf "closed connections still counted: open_conns = %d" n
            else begin
              Thread.delay 0.01;
              settle ()
            end
          in
          settle ()))

(* Count the replies on [c] up to its EOF (or a reset), requiring each to
   be [OK]. *)
let oks_until_eof c =
  let rec go n =
    match P.Resp_decoder.next c.dec with
    | P.Dec_frame (_, P.Ok) -> go (n + 1)
    | P.Dec_frame (_, r) -> Alcotest.failf "a SET answered %s" (P.print_response r)
    | P.Dec_skip (_, msg) | P.Dec_broken msg -> Alcotest.failf "undecodable reply: %s" msg
    | P.Dec_more -> (
        match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
        | 0 -> n
        | len ->
            P.Resp_decoder.feed_bytes c.dec c.buf ~off:0 ~len;
            go n
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "no EOF within 5 s")
  in
  go 0

(* Half-closing clients read every reply before their EOF, the ones a
   worker posts included.  With k = 1 and two hammer connections keeping
   the shard busy, a read's list often goes to the ring: the ring is not
   empty, or the one slot is held.  Each probe connection pipelines 16
   SETs in one write and at once half-closes, so its reactor reads the EOF
   while the worker's post may still be on its way.  When workers dropped
   the connection's pending count after posting, a post that landed
   between the loop's mailbox drain and its close check was closed out
   with all 16 replies: every one of 10 runs of this case lost them on
   17–83 of its 768 connections.  That race needs the worker and the
   reactor on two CPUs at once, and so does the hammer's slot contention:
   pinned to one CPU (taskset -c 0) no list went through the ring in 4 of
   5 runs, so only a run with two CPUs must see the ring used, and a pass
   on one proves nothing. *)
let test_half_closed_clients_get_ring_replies () =
  with_server { quiet with workers = 2; k = 1; reactors = 2 } (fun t ->
      let port = Server.port t in
      let hammering = Atomic.make true in
      let hammer i () =
        let c = connect ~wire:P.Binary ~timeout_s:5. port in
        Fun.protect ~finally:(fun () -> close c) (fun () ->
            while Atomic.get hammering do
              send c
                (List.init 32 (fun id -> (Some id, P.Set (Printf.sprintf "h%d.%d" i id, "v"))));
              for _ = 1 to 32 do
                ignore (recv_tagged c)
              done
            done)
      in
      let hammers = List.init 2 (fun i -> Thread.create (hammer i) ()) in
      let per = 16 and width = 32 and rounds = 24 in
      let short = ref 0 in
      let deltas =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set hammering false;
            List.iter Thread.join hammers)
          (fun () ->
            stat_delta t [ "ring_pushes" ] (fun () ->
                for round = 1 to rounds do
                  let probes =
                    List.init width (fun i ->
                        let c = connect ~wire:P.Binary ~timeout_s:5. port in
                        send c
                          (List.init per (fun id ->
                               (Some id, P.Set (Printf.sprintf "p%d.%d.%d" round i id, "v"))));
                        Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
                        c)
                  in
                  List.iter
                    (fun c ->
                      if oks_until_eof c <> per then incr short;
                      close c)
                    probes
                done))
      in
      if Domain.recommended_domain_count () >= 2 && List.assoc "ring_pushes" deltas = 0 then
        Alcotest.fail "no list went through the ring";
      Alcotest.(check int) "connections closed short of their replies" 0 !short)

let suite =
  [ Helpers.tc "CRUD over a socket" test_crud_over_socket;
    Helpers.tc "bad server and loadgen configs raise Invalid_argument"
      test_bad_configs_rejected;
    Helpers.tc "garbage stream dropped" test_garbage_stream_dropped;
    Helpers.tc "pipelined window, out-of-order by id" test_pipelined_window;
    Helpers.tc_slow "kill k-1 workers: zero client-visible failures"
      test_kill_k_minus_1_zero_failures;
    Helpers.tc_slow "kill k workers: stall, then clean stop" test_kill_k_stalls_but_stops;
    Helpers.tc_slow "shard kill isolation: wedged shard, live neighbours"
      test_shard_kill_isolated;
    Helpers.tc_slow "GETs survive a fully wedged shard" test_get_survives_wedged_shard;
    Helpers.tc_slow "pipelined latency stamped at enqueue" test_pipelined_latency_honest;
    Helpers.tc "binary wire e2e: CRUD, SCAN, skip and break" test_binary_wire_e2e;
    Helpers.tc "oversized frames rejected on both wires" test_oversized_frame_rejected;
    Helpers.tc_slow "SCAN survives a fully wedged shard" test_scan_survives_wedged_shard;
    Helpers.tc_slow "loadgen YCSB mix on the binary wire" test_loadgen_binary_ycsb;
    Helpers.tc "loadgen --json run record carries the floor's totals" test_loadgen_run_record;
    Helpers.tc "reactor: CRUD and stats over the event loop" test_reactor_crud;
    Helpers.tc "reactor: pipelined window, out-of-order by id" test_reactor_pipelined_window;
    Helpers.tc "reactor: one read of 64 mutations is one dispatch" test_reactor_read_is_one_dispatch;
    Helpers.tc "reactor: refused read answers MOVED and closes clean"
      test_reactor_refused_read_closes_clean;
    Helpers.tc "reactor: 64 binary GETs in one write, batched and exact"
      test_reactor_get_batch_mixed;
    Helpers.tc "untagged GET, PING, GET answer in order" test_untagged_gets_keep_order;
    Helpers.tc "GET batch across 4 shards, MOVED in position" test_get_batch_across_shards;
    Helpers.tc_slow "reactor: GETs survive a fully wedged shard"
      test_reactor_get_survives_wedged_shard;
    Helpers.tc_slow "reactor: slow client paused then dropped, no stall, no leak"
      test_reactor_slow_client_dropped;
    Helpers.tc_slow "reactor: chaos kill-worker at C=128, zero errors"
      test_reactor_chaos_kill_c128;
    Helpers.tc "reactor: a pending kill keeps a read of 64 mutations on the ring"
      test_pending_kill_read_rides_ring;
    Helpers.tc "a second reply write is not held for a delayed ACK"
      test_second_write_not_delayed;
    Helpers.tc "worker domains start on first use: none when healthy, one shard's on KILL"
      test_workers_start_on_first_use;
    Helpers.tc_slow "a burst of 512 connections is answered within a second"
      test_connection_burst;
    Helpers.tc "stop after crash closes the listener's fd once"
      test_stop_after_crash_closes_listener_once;
    Helpers.tc "a failed accept (fd table full) does not end the accept loop"
      test_accept_survives_fd_exhaustion;
    Helpers.tc "STATS gc_minor_words and gc_promoted_words grow across a burst of SETs"
      test_stats_gc_words;
    Helpers.tc "STATS open_conns counts the open connections and falls back as they close"
      test_open_conns_counts;
    Helpers.tc "half-closing clients read every reply, ring replies included"
      test_half_closed_clients_get_ring_replies ]
