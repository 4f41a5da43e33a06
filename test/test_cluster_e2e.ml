(* End-to-end cluster tests: two (or four) real kexd nodes (in-process,
   ephemeral ports) forming a shared-nothing cluster.  What must hold on
   the wire: MOVED/TOPO routing, live shard migration under load with zero
   lost acks (the exact-counter check), and kill-node failover — surviving
   shards answer with zero errors, dead shards fail until reassigned. *)

module Server = Kex_service.Server
module P = Kex_service.Protocol
module Routing = Kex_cluster.Routing

open Wire_client

(* Every cluster-test connection carries a 5 s receive timeout. *)
let connect port = connect ~timeout_s:5.0 port

(* --------------------------- cluster plumbing --------------------------- *)

let quiet = { Server.default_config with port = 0; log = (fun _ -> ()) }

(* Start [n] nodes on ephemeral ports, then join them into one cluster over
   the discovered address list (the reason [enable_cluster] exists). *)
let with_cluster ?(cfg = quiet) n f =
  let servers = Array.init n (fun _ -> Server.start cfg) in
  let addrs =
    Array.to_list (Array.map (fun t -> Printf.sprintf "127.0.0.1:%d" (Server.port t)) servers)
  in
  Array.iteri (fun node t -> Server.enable_cluster t ~node ~addrs) servers;
  Fun.protect
    ~finally:(fun () -> Array.iter (fun t -> Server.stop ~drain_timeout_s:1. t) servers)
    (fun () -> f servers (Array.of_list addrs))

(* A key that routes to [shard] — deterministic, the nodes' own map. *)
let key_for_shard ~shards shard =
  let rec go i =
    let k = Printf.sprintf "key-%d" i in
    if Routing.key_shard ~shards k = shard then k else go (i + 1)
  in
  go 0

(* --------------------------------- tests -------------------------------- *)

(* TOPO returns the deterministic bootstrap table; a request for an unowned
   shard answers MOVED with the current owner; the owner serves it. *)
let test_topo_and_moved () =
  let shards = 4 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 1 } 2 (fun servers addrs ->
      let c0 = connect (Server.port servers.(0)) in
      let c1 = connect (Server.port servers.(1)) in
      Fun.protect ~finally:(fun () -> close c0; close c1) (fun () ->
          (match rpc c0 P.Topo with
          | P.Topo_reply (epoch, owners) ->
              Alcotest.(check int) "bootstrap epoch" 1 epoch;
              Alcotest.(check int) "table is total" shards (List.length owners);
              List.iter
                (fun (s, a) ->
                  Alcotest.(check string) (Printf.sprintf "shard %d round-robins" s)
                    addrs.(s mod 2) a)
                owners
          | r -> Alcotest.failf "TOPO answered %s" (P.print_response r));
          (* Node 1's shard via node 0: redirected, not served. *)
          let k1 = key_for_shard ~shards 1 in
          assert_resp "SET at wrong node" (P.Moved (1, 1, addrs.(1))) (rpc c0 (P.Set (k1, "v")));
          assert_resp "GET at wrong node" (P.Moved (1, 1, addrs.(1))) (rpc c0 (P.Get k1));
          (* The owner serves the same key. *)
          assert_resp "SET at owner" P.Ok (rpc c1 (P.Set (k1, "v")));
          assert_resp "GET at owner" (P.Value (Some "v")) (rpc c1 (P.Get k1));
          (* Node 0's own shard works locally. *)
          let k0 = key_for_shard ~shards 0 in
          assert_resp "SET at home" P.Ok (rpc c0 (P.Set (k0, "w")));
          (* STATS carries the topology (satellite 6). *)
          match rpc c0 P.Stats with
          | P.Stats_reply pairs ->
              let get name =
                match List.assoc_opt name pairs with
                | Some v -> v
                | None -> Alcotest.failf "no %S in STATS" name
              in
              Alcotest.(check int) "cluster_node" 0 (get "cluster_node");
              Alcotest.(check int) "cluster_nodes" 2 (get "cluster_nodes");
              Alcotest.(check int) "routing_epoch" 1 (get "routing_epoch");
              Alcotest.(check int) "owned_shards" 2 (get "owned_shards");
              Alcotest.(check int) "owned_mask" 0b0101 (get "owned_mask")
          | r -> Alcotest.failf "STATS answered %s" (P.print_response r)))

(* A redirect-following UPDATE: retries at whichever node MOVED points to.
   Returns the number of acknowledged increments — an UPDATE answered
   MOVED was *not* applied, so only Int replies count. *)
let update_following_moved servers ~key ~port_of_addr =
  let conns = Hashtbl.create 4 in
  let conn_to port =
    match Hashtbl.find_opt conns port with
    | Some c -> c
    | None ->
        let c = connect port in
        Hashtbl.add conns port c;
        c
  in
  let close_all () = Hashtbl.iter (fun _ c -> close c) conns in
  let port = ref (Server.port servers.(0)) in
  let ack = ref 0 in
  let update () =
    let rec go tries port' =
      if tries > 5 then Alcotest.fail "MOVED chase did not converge"
      else
        match rpc (conn_to port') (P.Update (key, 1)) with
        | P.Int _ ->
            incr ack;
            port := port'
        | P.Moved (_, _, addr) -> go (tries + 1) (port_of_addr addr)
        | r -> Alcotest.failf "UPDATE answered %s" (P.print_response r)
    in
    go 0 !port
  in
  (update, ack, close_all)

(* Live migration under load: clients hammer one counter key while its
   shard moves between nodes.  Zero lost (and zero duplicated) acks: the
   final counter equals exactly the number of acknowledged increments. *)
let test_migration_under_load_exact_counter () =
  let shards = 2 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 2 } 2 (fun servers addrs ->
      let port_of_addr a =
        match String.rindex_opt a ':' with
        | Some i -> int_of_string (String.sub a (i + 1) (String.length a - i - 1))
        | None -> Alcotest.failf "bad addr %S" a
      in
      let shard = 0 in
      let key = key_for_shard ~shards shard in
      let clients = 3 and per = 120 in
      let acks = Array.make clients 0 in
      let threads =
        Array.init clients (fun i ->
            Thread.create
              (fun () ->
                let update, ack, close_all = update_following_moved servers ~key ~port_of_addr in
                Fun.protect ~finally:close_all (fun () ->
                    for _ = 1 to per do
                      update ();
                      if !ack mod 16 = 0 then Thread.yield ()
                    done;
                    acks.(i) <- !ack))
              ())
      in
      (* Let the load start, then migrate the hot shard out from under it —
         and back, so both directions run under load. *)
      Thread.delay 0.05;
      (match Server.handoff servers.(0) ~shard ~addr:addrs.(1) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "handoff 0->1: %s" msg);
      Thread.delay 0.05;
      (match Server.handoff servers.(1) ~shard ~addr:addrs.(0) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "handoff 1->0: %s" msg);
      Array.iter Thread.join threads;
      let total = Array.fold_left ( + ) 0 acks in
      Alcotest.(check int) "every increment acknowledged" (clients * per) total;
      (* Read the counter back from whoever owns it now. *)
      let c = connect (Server.port servers.(0)) in
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          let final =
            match rpc c (P.Get key) with
            | P.Value (Some v) -> int_of_string v
            | P.Moved (_, _, addr) -> (
                let c' = connect (port_of_addr addr) in
                Fun.protect ~finally:(fun () -> close c') (fun () ->
                    match rpc c' (P.Get key) with
                    | P.Value (Some v) -> int_of_string v
                    | r -> Alcotest.failf "GET at owner answered %s" (P.print_response r)))
            | r -> Alcotest.failf "GET answered %s" (P.print_response r)
          in
          Alcotest.(check int) "zero lost acks: counter = acks" total final;
          (* Two migrations = two epoch bumps, visible in TOPO. *)
          match rpc c P.Topo with
          | P.Topo_reply (epoch, owners) ->
              Alcotest.(check int) "epoch advanced twice" 3 epoch;
              Alcotest.(check string) "shard back home" addrs.(0) (List.assoc shard owners)
          | r -> Alcotest.failf "TOPO answered %s" (P.print_response r)))

(* Kill-node failover: crash one node; the survivor's shards answer with
   zero errors throughout, the dead node's shards fail until [adopt]
   reassigns them at a successor epoch (data lost — shared-nothing — but
   availability restored). *)
let test_kill_node_failover () =
  let shards = 2 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 1 } 2 (fun servers addrs ->
      let k0 = key_for_shard ~shards 0 and k1 = key_for_shard ~shards 1 in
      let c0 = connect (Server.port servers.(0)) in
      Fun.protect ~finally:(fun () -> close c0) (fun () ->
          (* Seed both shards at their owners. *)
          assert_resp "seed shard 0" P.Ok (rpc c0 (P.Set (k0, "alive")));
          let c1 = connect (Server.port servers.(1)) in
          assert_resp "seed shard 1" P.Ok (rpc c1 (P.Set (k1, "doomed")));
          (* Abrupt whole-node crash — what kill-node chaos fires. *)
          Server.crash servers.(1);
          (match Unix.read c1.fd c1.buf 0 1 with
          | 0 -> ()
          | _ -> Alcotest.fail "crashed node still talking"
          | exception Unix.Unix_error _ -> ());
          close c1;
          (* Surviving shard: zero errors, reads and writes keep working. *)
          for i = 1 to 20 do
            assert_resp "survivor SET" P.Ok (rpc c0 (P.Set (k0, "alive-" ^ string_of_int i)))
          done;
          assert_resp "survivor GET" (P.Value (Some "alive-20")) (rpc c0 (P.Get k0));
          (* Dead shard: the survivor still answers MOVED to the corpse... *)
          assert_resp "dead shard redirects" (P.Moved (1, 1, addrs.(1))) (rpc c0 (P.Get k1));
          (* ...and the corpse refuses connections. *)
          (match connect (Server.port servers.(1)) with
          | c -> close c; Alcotest.fail "dead node accepted a connection"
          | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _) -> ());
          (* Failover: the survivor adopts the dead node's shard. *)
          (match Server.adopt servers.(0) ~shard:1 with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "adopt: %s" msg);
          (* The shard answers again — empty (its data died with its owner),
             then writable. *)
          assert_resp "adopted shard is empty" (P.Value None) (rpc c0 (P.Get k1));
          assert_resp "adopted shard writable" P.Ok (rpc c0 (P.Set (k1, "reborn")));
          assert_resp "adopted shard readable" (P.Value (Some "reborn")) (rpc c0 (P.Get k1));
          match rpc c0 P.Topo with
          | P.Topo_reply (epoch, owners) ->
              Alcotest.(check int) "adopt bumped the epoch" 2 epoch;
              Alcotest.(check string) "survivor owns shard 1" addrs.(0) (List.assoc 1 owners)
          | r -> Alcotest.failf "TOPO answered %s" (P.print_response r)))

(* HANDOFF as a wire frame: the connection that sent it gets OK once the
   shard has moved, the old owner then redirects at the bumped epoch and
   the new owner serves the migrated value.  A HANDOFF of a shard this node
   does not own answers ERR and leaves the connection usable. *)
let test_handoff_frame () =
  let shards = 2 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 1 } 2 (fun servers addrs ->
      let k0 = key_for_shard ~shards 0 in
      let c0 = connect (Server.port servers.(0)) in
      let c1 = connect (Server.port servers.(1)) in
      Fun.protect ~finally:(fun () -> close c0; close c1) (fun () ->
          assert_resp "seed shard 0" P.Ok (rpc c0 (P.Set (k0, "moving")));
          assert_resp "seed ctr" (P.Int 3) (rpc c0 (P.Update ("ctr-" ^ k0, 3)));
          assert_resp "HANDOFF owned shard" P.Ok (rpc c0 (P.Handoff (0, addrs.(1))));
          assert_resp "old owner redirects" (P.Moved (0, 2, addrs.(1))) (rpc c0 (P.Get k0));
          assert_resp "new owner serves" (P.Value (Some "moving")) (rpc c1 (P.Get k0));
          (match rpc c0 (P.Handoff (1, addrs.(1))) with
          | P.Error _ -> ()
          | r -> Alcotest.failf "HANDOFF of an unowned shard answered %s" (P.print_response r));
          assert_resp "same connection still answers" P.Pong (rpc c0 P.Ping)))

(* A shard's round trip must not bring a deleted key back: node 0 hands
   shard 0 to node 1, the key is deleted there, and the shard comes home.
   The import empties the copy node 0 kept from before the first handoff,
   so the GET at node 0 answers nothing.  STATS [keys] counts only owned
   shards, so after each handoff it follows the shard. *)
let test_round_trip_keeps_delete () =
  let shards = 2 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 1 } 2 (fun servers addrs ->
      let k0 = key_for_shard ~shards 0 in
      let c0 = connect (Server.port servers.(0)) in
      let c1 = connect (Server.port servers.(1)) in
      let keys c =
        match rpc c P.Stats with
        | P.Stats_reply pairs -> (
            match List.assoc_opt "keys" pairs with
            | Some v -> v
            | None -> Alcotest.fail "no keys in STATS")
        | r -> Alcotest.failf "STATS answered %s" (P.print_response r)
      in
      let check_keys ctx ~node0 ~node1 =
        Alcotest.(check (pair int int)) (ctx ^ ": keys at node 0, node 1") (node0, node1)
          (keys c0, keys c1)
      in
      Fun.protect ~finally:(fun () -> close c0; close c1) (fun () ->
          assert_resp "SET at node 0" P.Ok (rpc c0 (P.Set (k0, "v")));
          check_keys "seeded" ~node0:1 ~node1:0;
          assert_resp "HANDOFF to node 1" P.Ok (rpc c0 (P.Handoff (0, addrs.(1))));
          check_keys "after the handoff out" ~node0:0 ~node1:1;
          assert_resp "DEL at node 1" (P.Deleted true) (rpc c1 (P.Del k0));
          check_keys "after the DEL" ~node0:0 ~node1:0;
          assert_resp "HANDOFF back to node 0" P.Ok (rpc c1 (P.Handoff (0, addrs.(0))));
          check_keys "after the handoff back" ~node0:0 ~node1:0;
          assert_resp "the DEL survived the round trip" (P.Value None) (rpc c0 (P.Get k0))))

(* ------------------------- cluster-mode loadgen ------------------------- *)

module Loadgen = Kex_service.Loadgen

let cluster_load addrs ~expect_dead =
  { Loadgen.default_config with
    connections = 2;
    duration_s = 1.5;
    keys = 64;
    mix = [ ("get", 70); ("set", 20); ("update", 10) ];
    pipeline = 8;
    wire = P.Binary;
    timeout_s = 5.;
    cluster = Array.to_list addrs;
    expect_dead }

(* Loadgen against a live migration on an [nodes]-node cluster: shard 0
   moves from node 0 to node 1 mid-load.  The client follows the MOVED
   redirects and no request fails. *)
let test_loadgen_follows_migration nodes () =
  with_cluster ~cfg:{ quiet with shards = 4; workers = 2; k = 2 } nodes (fun servers addrs ->
      let result = ref (Error "handoff never ran") in
      let mover =
        Thread.create
          (fun () ->
            Thread.delay 0.6;
            result := Server.handoff servers.(0) ~shard:0 ~addr:addrs.(1))
          ()
      in
      let s = Loadgen.run (cluster_load addrs ~expect_dead:[]) in
      Thread.join mover;
      (match !result with Ok () -> () | Error msg -> Alcotest.failf "handoff: %s" msg);
      Alcotest.(check int) "zero errors" 0 s.Loadgen.errors;
      Alcotest.(check bool) "made progress" true (s.Loadgen.requests > 0);
      Alcotest.(check bool) "followed a redirect" true (s.Loadgen.redirects >= 1))

(* Loadgen against a node crash and its failover: node 1 dies at 0.6 s and
   node 0 adopts node 1's shards (1 and 3) at 1.0 s.  Every error is
   attributed to node 1 and counted as expected; node 0 sees none.  The dead
   node must not throttle the live one: between the crash and the adopt,
   successes per second stay at least a tenth of the pre-crash rate. *)
let test_loadgen_attributes_dead_node () =
  with_cluster ~cfg:{ quiet with shards = 4; workers = 2; k = 2 } 2 (fun servers addrs ->
      let adopts = ref [] in
      let killer =
        Thread.create
          (fun () ->
            Thread.delay 0.6;
            Server.crash servers.(1);
            Thread.delay 0.4;
            adopts := List.map (fun shard -> (shard, Server.adopt servers.(0) ~shard)) [ 1; 3 ])
          ()
      in
      let s =
        Loadgen.run
          { (cluster_load addrs ~expect_dead:[ addrs.(1) ]) with phase_marks = [ 0.6; 1.0 ] }
      in
      Thread.join killer;
      Alcotest.(check (list int)) "both adopts ran" [ 1; 3 ] (List.map fst !adopts);
      List.iter
        (fun (shard, r) ->
          match r with Ok () -> () | Error msg -> Alcotest.failf "adopt shard %d: %s" shard msg)
        !adopts;
      Alcotest.(check bool) "the crash cost requests" true (s.Loadgen.errors > 0);
      Alcotest.(check int) "every error expected" s.Loadgen.errors s.Loadgen.expected_errors;
      Alcotest.(check (list string)) "only node 1 erred" [ addrs.(1) ]
        (List.map fst s.Loadgen.node_errors);
      Alcotest.(check bool) "node 0 kept serving" true (s.Loadgen.requests > s.Loadgen.errors);
      let ok_rate (b : Loadgen.bucket) = float_of_int (b.requests - b.errors) /. b.window_s in
      match s.Loadgen.phases with
      | [ before; outage; _ ] ->
          if ok_rate outage < ok_rate before /. 10. then
            Alcotest.failf
              "dead node throttled the live one: %.0f ok/s after the crash, %.0f before"
              (ok_rate outage) (ok_rate before)
      | ph -> Alcotest.failf "expected 3 phases, got %d" (List.length ph))

(* ----------------------- a shard arrives as one install ---------------------- *)

(* The first [n] keys that hash to [shard]. *)
let keys_for_shard ~shards shard n =
  let rec go i acc =
    if List.length acc = n then List.rev acc
    else
      let k = Printf.sprintf "key-%d" i in
      go (i + 1) (if Routing.key_shard ~shards k = shard then k :: acc else acc)
  in
  go 0 []

let stat c name =
  match rpc c P.Stats with
  | P.Stats_reply pairs -> (
      match List.assoc_opt name pairs with
      | Some v -> v
      | None -> Alcotest.failf "no %S in STATS" name)
  | r -> Alcotest.failf "STATS answered %s" (P.print_response r)

(* A handoff commits once on the receiver, however many keys the shard
   holds: its chunks are staged off the store and installed as one
   operation. *)
let test_import_commits_once () =
  let shards = 2 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 1 } 2 (fun servers addrs ->
      let c0 = connect (Server.port servers.(0)) in
      let c1 = connect (Server.port servers.(1)) in
      Fun.protect ~finally:(fun () -> close c0; close c1) (fun () ->
          List.iter
            (fun key -> assert_resp "SET at node 0" P.Ok (rpc c0 (P.Set (key, "v"))))
            (keys_for_shard ~shards 0 100);
          let before = stat c1 "ops_shard_0" in
          assert_resp "HANDOFF to node 1" P.Ok (rpc c0 (P.Handoff (0, addrs.(1))));
          Alcotest.(check int) "one commit per import" (before + 1) (stat c1 "ops_shard_0");
          Alcotest.(check int) "every key arrived" 100 (stat c1 "keys")))

(* Adopting a shard this node owned before serves the empty shard, not the
   copy it kept: shard 0 goes to node 1, its key is deleted there, node 1
   crashes, and node 0 adopts shard 0. *)
let test_adopt_serves_empty_shard () =
  let shards = 2 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 1 } 2 (fun servers addrs ->
      let k0 = key_for_shard ~shards 0 in
      let c0 = connect (Server.port servers.(0)) in
      let c1 = connect (Server.port servers.(1)) in
      Fun.protect ~finally:(fun () -> close c0; close c1) (fun () ->
          assert_resp "SET at node 0" P.Ok (rpc c0 (P.Set (k0, "old")));
          assert_resp "HANDOFF to node 1" P.Ok (rpc c0 (P.Handoff (0, addrs.(1))));
          assert_resp "DEL at node 1" (P.Deleted true) (rpc c1 (P.Del k0));
          Server.crash servers.(1);
          (match Server.adopt servers.(0) ~shard:0 with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "adopt: %s" msg);
          assert_resp "the adopted shard is empty" (P.Value None) (rpc c0 (P.Get k0))))

(* A round trip with a changed value, a new key and a delete: the shard
   comes back exactly as its last owner held it. *)
let test_round_trip_mixed () =
  let shards = 2 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 1 } 2 (fun servers addrs ->
      let c0 = connect (Server.port servers.(0)) in
      let c1 = connect (Server.port servers.(1)) in
      let scan c = rpc c (P.Scan ("", 100)) in
      Fun.protect ~finally:(fun () -> close c0; close c1) (fun () ->
          match keys_for_shard ~shards 0 4 with
          | [ changed; kept; deleted; added ] ->
              List.iter
                (fun key -> assert_resp "SET at node 0" P.Ok (rpc c0 (P.Set (key, "v0"))))
                [ changed; kept; deleted ];
              assert_resp "HANDOFF to node 1" P.Ok (rpc c0 (P.Handoff (0, addrs.(1))));
              assert_resp "change at node 1" P.Ok (rpc c1 (P.Set (changed, "v1")));
              assert_resp "add at node 1" P.Ok (rpc c1 (P.Set (added, "v1")));
              assert_resp "DEL at node 1" (P.Deleted true) (rpc c1 (P.Del deleted));
              let owner = scan c1 in
              assert_resp "the owner's SCAN"
                (P.Range
                   (List.sort compare [ (changed, "v1"); (kept, "v0"); (added, "v1") ]))
                owner;
              assert_resp "HANDOFF back to node 0" P.Ok (rpc c1 (P.Handoff (0, addrs.(0))));
              assert_resp "the receiver's SCAN equals the owner's" owner (scan c0)
          | _ -> assert false))

(* Two HANDOFFs of one shard at once, to two different nodes: the shard's
   handoff claim lets exactly one through and the other answers ERR, so
   afterwards exactly one node owns the shard — the destination that
   answered OK. *)
let test_concurrent_handoffs_one_owner () =
  let shards = 2 in
  with_cluster ~cfg:{ quiet with shards; workers = 2; k = 1 } 3 (fun servers addrs ->
      let cs = Array.map (fun t -> connect (Server.port t)) servers in
      let to1 = connect (Server.port servers.(0)) and to2 = connect (Server.port servers.(0)) in
      Fun.protect
        ~finally:(fun () -> List.iter close (to1 :: to2 :: Array.to_list cs))
        (fun () ->
          List.iter
            (fun key -> assert_resp "SET at node 0" P.Ok (rpc cs.(0) (P.Set (key, "v"))))
            (keys_for_shard ~shards 0 200);
          send to1 [ (None, P.Handoff (0, addrs.(1))) ];
          send to2 [ (None, P.Handoff (0, addrs.(2))) ];
          let ok r = match r with P.Ok -> true | _ -> false in
          let r1 = recv to1 and r2 = recv to2 in
          Alcotest.(check int)
            (Printf.sprintf "one HANDOFF answers OK (%s / %s)" (P.print_response r1)
               (P.print_response r2))
            1
            (List.length (List.filter ok [ r1; r2 ]));
          let owners =
            List.filter (fun node -> stat cs.(node) "owned_mask" land 1 = 1) [ 0; 1; 2 ]
          in
          Alcotest.(check (list int)) "the OK destination is the one owner"
            [ (if ok r1 then 1 else 2) ]
            owners))

let suite =
  [ Helpers.tc "cluster: TOPO, MOVED, STATS topology" test_topo_and_moved;
    Helpers.tc_slow "cluster: live migration under load, exact counter"
      test_migration_under_load_exact_counter;
    Helpers.tc_slow "cluster: kill-node failover via adopt" test_kill_node_failover;
    Helpers.tc "cluster: HANDOFF frame moves a shard, ERR keeps the connection"
      test_handoff_frame;
    Helpers.tc_slow "cluster: loadgen follows a live migration, 2 nodes, zero errors"
      (test_loadgen_follows_migration 2);
    Helpers.tc_slow "cluster: loadgen follows a live migration, 4 nodes, zero errors"
      (test_loadgen_follows_migration 4);
    Helpers.tc_slow "cluster: loadgen pins a node crash on the dead node, then adopt"
      test_loadgen_attributes_dead_node;
    Helpers.tc "cluster: a shard's round trip keeps a DEL, keys follow ownership"
      test_round_trip_keeps_delete;
    Helpers.tc "cluster: a 100-key handoff commits once on the receiver"
      test_import_commits_once;
    Helpers.tc "cluster: adopt serves the empty shard, not a stale copy"
      test_adopt_serves_empty_shard;
    Helpers.tc "cluster: a mixed round trip ends with the owner's SCAN"
      test_round_trip_mixed;
    Helpers.tc "cluster: two concurrent HANDOFFs of a shard leave one owner"
      test_concurrent_handoffs_one_owner ]
