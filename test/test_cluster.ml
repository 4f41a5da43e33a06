(* lib/cluster units: the epoch-versioned routing table and the pure
   migration helpers.  The e2e cluster behaviour (MOVED, handoff under
   load, kill-node failover) lives in test_cluster_e2e.ml. *)

module Q = QCheck2
module Routing = Kex_cluster.Routing
module Migration = Kex_cluster.Migration

let test_initial () =
  let addrs = [ "a:1"; "b:2"; "c:3" ] in
  let t = Routing.initial ~addrs ~shards:8 in
  Alcotest.(check int) "epoch starts at 1" 1 (Routing.epoch t);
  Alcotest.(check int) "shards" 8 (Routing.shards t);
  for s = 0 to 7 do
    Alcotest.(check string)
      (Printf.sprintf "shard %d round-robins" s)
      (List.nth addrs (s mod 3)) (Routing.owner t s)
  done;
  let ep, owners = Routing.snapshot t in
  Alcotest.(check int) "snapshot epoch" 1 ep;
  Alcotest.(check int) "snapshot is total" 8 (List.length owners);
  List.iter (fun (s, a) -> Alcotest.(check string) "snapshot agrees" (Routing.owner t s) a) owners

let test_move_bumps_epoch () =
  let t = Routing.initial ~addrs:[ "a:1"; "b:2" ] ~shards:4 in
  let e2 = Routing.move t ~shard:0 ~addr:"b:2" in
  Alcotest.(check int) "move returns successor epoch" 2 e2;
  Alcotest.(check int) "epoch advanced" 2 (Routing.epoch t);
  Alcotest.(check string) "ownership flipped" "b:2" (Routing.owner t 0);
  let e3 = Routing.move t ~shard:3 ~addr:"a:1" in
  Alcotest.(check int) "epochs are monotone" 3 e3

let test_observe_strictly_newer () =
  let t = Routing.initial ~addrs:[ "a:1"; "b:2" ] ~shards:4 in
  (* Same epoch: stale, must be ignored. *)
  Alcotest.(check bool) "same epoch rejected" false (Routing.observe t ~shard:0 ~epoch:1 ~addr:"x:9");
  Alcotest.(check string) "table unchanged" "a:1" (Routing.owner t 0);
  (* Strictly newer: adopted, epoch adopted too. *)
  Alcotest.(check bool) "newer adopted" true (Routing.observe t ~shard:0 ~epoch:5 ~addr:"x:9");
  Alcotest.(check string) "mapping adopted" "x:9" (Routing.owner t 0);
  Alcotest.(check int) "epoch adopted" 5 (Routing.epoch t);
  (* Older after that: rejected — tables never roll backwards. *)
  Alcotest.(check bool) "older rejected" false (Routing.observe t ~shard:0 ~epoch:4 ~addr:"y:8");
  Alcotest.(check string) "still at newer" "x:9" (Routing.owner t 0);
  (* Out-of-range shard ids are ignored, not fatal. *)
  Alcotest.(check bool) "oob shard ignored" false (Routing.observe t ~shard:99 ~epoch:9 ~addr:"z:7");
  Alcotest.(check bool) "negative shard ignored" false
    (Routing.observe t ~shard:(-1) ~epoch:9 ~addr:"z:7")

let test_install () =
  let t = Routing.initial ~addrs:[ "a:1"; "b:2" ] ~shards:2 in
  Alcotest.(check bool) "same-epoch table rejected" false
    (Routing.install t ~epoch:1 ~owners:[ (0, "x:9"); (1, "x:9") ]);
  Alcotest.(check bool) "newer table adopted" true
    (Routing.install t ~epoch:3 ~owners:[ (0, "x:9"); (1, "y:8") ]);
  Alcotest.(check string) "entry 0" "x:9" (Routing.owner t 0);
  Alcotest.(check string) "entry 1" "y:8" (Routing.owner t 1);
  Alcotest.(check int) "epoch" 3 (Routing.epoch t);
  Alcotest.(check bool) "older table rejected" false
    (Routing.install t ~epoch:2 ~owners:[ (0, "z:7") ]);
  Alcotest.(check string) "survives stale install" "x:9" (Routing.owner t 0)

(* Clients and servers must agree on key -> shard or MOVED chases forever,
   and so must builds: a client of another build, or a shard migrated to
   or adopted by a node of another build, would be misrouted.  So the map
   is pinned: the shard of each key below at 8 shards, one digit per key
   in list order, as the FNV-1a map has always answered. *)
let pinned_at_8 =
  "16305274162547610325163052741603614725037452301674610325476152741630524725036147301674523025"
  ^ "47610325610325476174523016744725036147527416305225476103253016745230036147250316305274166103"
  ^ "2547617452301674570"

let test_key_shard_pinned () =
  let t = Routing.initial ~addrs:[ "a:1"; "b:2"; "c:3" ] ~shards:8 in
  let keys = List.init 200 (fun i -> Printf.sprintf "key-%d" i) @ [ ""; "\x00"; "\xff\xfe" ] in
  Alcotest.(check int) "one pin per key" (List.length keys) (String.length pinned_at_8);
  List.iteri
    (fun i key ->
      let want = Char.code pinned_at_8.[i] - Char.code '0' in
      let name = String.escaped key in
      Alcotest.(check int) ("pinned shard of " ^ name) want (Routing.key_shard ~shards:8 key);
      Alcotest.(check int) ("the table routes " ^ name) want (Routing.shard_of_key t key))
    keys;
  (* One shard means no hashing at all. *)
  let t1 = Routing.initial ~addrs:[ "a:1" ] ~shards:1 in
  List.iter
    (fun key -> Alcotest.(check int) "single shard is 0" 0 (Routing.shard_of_key t1 key))
    keys

let sorted_bindings l =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b) l

let test_diff_apply_basic () =
  let before = [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  let after = [ ("a", "1"); ("b", "20"); ("d", "4") ] in
  let changes = Migration.diff ~before ~after in
  Alcotest.(check (list (pair string (option string))))
    "diff omits unchanged, emits set+delete"
    [ ("b", Some "20"); ("c", None); ("d", Some "4") ]
    changes;
  Alcotest.(check (list (pair string string))) "apply(diff) = after" after
    (Migration.apply ~before changes);
  Alcotest.(check (list (pair string (option string)))) "diff of equal is empty" []
    (Migration.diff ~before ~after:before)

let test_chunks () =
  Alcotest.(check (list (list int))) "even split" [ [ 1; 2 ]; [ 3; 4 ] ]
    (Migration.chunks ~max:2 [ 1; 2; 3; 4 ]);
  Alcotest.(check (list (list int))) "ragged tail" [ [ 1; 2; 3 ]; [ 4 ] ]
    (Migration.chunks ~max:3 [ 1; 2; 3; 4 ]);
  Alcotest.(check (list (list int))) "empty" [] (Migration.chunks ~max:4 []);
  Alcotest.(check (list (list int))) "order kept" [ [ 1 ]; [ 2 ]; [ 3 ] ]
    (Migration.chunks ~max:1 [ 1; 2; 3 ])

let gen_bindings =
  let open Q.Gen in
  let key = map (Printf.sprintf "k%02d") (int_range 0 30) in
  let v = string_size ~gen:printable (int_range 0 6) in
  map sorted_bindings (list_size (int_range 0 25) (pair key v))

let prop_diff_apply_roundtrip =
  Q.Test.make ~name:"cluster: apply (diff before after) = after" ~count:300
    Q.Gen.(pair gen_bindings gen_bindings)
    (fun (before, after) -> Migration.apply ~before (Migration.diff ~before ~after) = after)

let prop_chunks_concat =
  Q.Test.make ~name:"cluster: concat (chunks l) = l, all <= max" ~count:200
    Q.Gen.(pair (int_range 1 7) (list_size (int_range 0 40) small_int))
    (fun (max, l) ->
      let cs = Migration.chunks ~max l in
      List.concat cs = l && List.for_all (fun c -> c <> [] && List.length c <= max) cs)

let suite =
  [ Helpers.tc "routing: deterministic bootstrap" test_initial;
    Helpers.tc "routing: move bumps epoch" test_move_bumps_epoch;
    Helpers.tc "routing: observe adopts strictly newer only" test_observe_strictly_newer;
    Helpers.tc "routing: install adopts strictly newer tables" test_install;
    Helpers.tc "routing: the key -> shard map is pinned" test_key_shard_pinned;
    Helpers.tc "migration: diff/apply basics" test_diff_apply_basic;
    Helpers.tc "migration: chunks" test_chunks ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_diff_apply_roundtrip; prop_chunks_concat ]
