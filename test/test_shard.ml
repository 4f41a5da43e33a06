(* The shard state machine without sockets: a real Kv_store and ring, items
   that are plain store ops, workers that apply them through the blocking
   admission, and a spawn callback that counts (and, when asked, holds
   each worker at a gate until the test opens it).  Every test checks that
   the in-flight count settles at 0. *)

module Shard = Kex_service.Shard
module Kv_store = Kex_resilient.Kv_store
module Metrics = Kex_service.Metrics
module Wqueue = Kex_service.Wqueue
module Routing = Kex_cluster.Routing

type fixture = {
  sh : Kv_store.op Shard.t;
  pool : Shard.pool;
  store : Kv_store.t;
  reactor : int;  (* the inline caller's pid in the store's wrapper *)
  spawns : int Atomic.t;
  gate : bool Atomic.t;  (* workers wait here until it is true *)
}

let wait_until ?(timeout_s = 5.) what p =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while (not (p ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  if not (p ()) then Alcotest.failf "timed out waiting for %s" what

let with_shard ?(workers = 2) ?(k = 2) ?(gated = false) f =
  let store = Kv_store.create ~n:(workers + 1) ~k () in
  let spawns = Atomic.make 0 and gate = Atomic.make (not gated) in
  let spawn run =
    Atomic.incr spawns;
    Domain.spawn (fun () ->
        while not (Atomic.get gate) do
          Thread.delay 0.001
        done;
        run ())
  in
  let pool = Shard.pool ~spawn ~workers ~log:ignore () in
  let sh =
    Shard.create pool ~id:0 ~store ~metrics:(Metrics.create ()) ~apply:(fun ~lpid ops ->
        ignore (Kv_store.perform_batch store ~pid:lpid ops))
  in
  let fx = { sh; pool; store; reactor = workers; spawns; gate } in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      Shard.retire pool [| sh |] ~drain_timeout_s:1. ~refuse:ignore)
    (fun () -> f fx)

let set key v = Kv_store.Set (key, v)

(* The inline attempt a reactor makes: one no-wait admission. *)
let admit fx ops = Option.is_some (Kv_store.try_perform_batch fx.store ~pid:fx.reactor ops)
let refuse_all _ = false

let check_route what expected actual =
  let name = function
    | Shard.Inline -> "Inline"
    | Shard.Pushed -> "Pushed"
    | Shard.Not_owner -> "Not_owner"
    | Shard.Shutting_down -> "Shutting_down"
  in
  Alcotest.(check string) what (name expected) (name actual)

let check_inflight what fx = Alcotest.(check int) (what ^ ": in flight") 0 (Shard.inflight fx.sh)
let check_value fx key v =
  Alcotest.(check (option string)) key (Some v) (Kv_store.read fx.store ~key)

let settle what fx =
  wait_until (what ^ " to settle") (fun () -> Shard.inflight fx.sh = 0);
  check_inflight what fx

(* A route run on another thread, so a test can watch it block. *)
let route_async fx items =
  let result = Atomic.make None in
  let th = Thread.create (fun () -> Atomic.set result (Some (Shard.route fx.sh items))) () in
  (th, result)

(* A server's table of shards, with no worker started: [n] processes per
   shard's wrapper and one slot each.  Keys are written through the
   shard's store the map routes them to. *)
let with_table ~shards ~n f =
  let pool = Shard.pool ~workers:1 ~log:ignore () in
  let table =
    Array.init shards (fun id ->
        let store = Kv_store.create ~n ~k:1 () in
        Shard.create pool ~id ~store ~metrics:(Metrics.create ()) ~apply:(fun ~lpid ops ->
            ignore (Kv_store.perform_batch store ~pid:lpid ops)))
  in
  Fun.protect
    ~finally:(fun () -> Shard.retire pool table ~drain_timeout_s:1. ~refuse:ignore)
    (fun () -> f table)

let shard_of table key = Routing.key_shard ~shards:(Array.length table) key
let table_set table ~pid key v = Kv_store.set (Shard.store table.(shard_of table key)) ~pid ~key v

let table_read table key =
  match (Shard.read_many table [| key |]).(0) with
  | Ok v -> v
  | Error s -> Alcotest.failf "%s: shard %d answered not-owner" key s

(* --------------------------------- tests -------------------------------- *)

let test_quiet_routes_inline () =
  with_shard (fun fx ->
      check_route "quiet shard" Shard.Inline (Shard.route fx.sh [ set "a" "1" ]);
      Alcotest.(check int) "counted in flight" 1 (Shard.inflight fx.sh);
      Shard.run_inline fx.sh [ set "a" "1" ] ~attempt:(admit fx) ~refuse:(fun _ ->
          Alcotest.fail "refused");
      check_inflight "after the inline apply" fx;
      check_value fx "a" "1";
      Alcotest.(check int) "no worker started" 0 (Atomic.get fx.spawns))

let test_kill_or_backlog_routes_to_ring () =
  with_shard (fun fx ->
      Shard.kill fx.sh ~lpid:0;
      Alcotest.(check int) "the kill starts the workers" 2 (Atomic.get fx.spawns);
      check_route "kill pending" Shard.Pushed (Shard.route fx.sh [ set "k" "1" ]);
      settle "the kill's list" fx;
      check_value fx "k" "1");
  with_shard ~gated:true (fun fx ->
      check_route "quiet shard" Shard.Inline (Shard.route fx.sh [ set "a" "1" ]);
      Shard.run_inline fx.sh [ set "a" "1" ] ~attempt:refuse_all ~refuse:(fun _ ->
          Alcotest.fail "refused");
      Alcotest.(check int) "a refused attempt fills the ring" 1 (Wqueue.length (Shard.ring fx.sh));
      check_route "non-empty ring" Shard.Pushed (Shard.route fx.sh [ set "b" "2" ]);
      Alcotest.(check int) "both lists in flight" 2 (Shard.inflight fx.sh);
      Atomic.set fx.gate true;
      settle "the ring" fx;
      check_value fx "a" "1";
      check_value fx "b" "2")

let test_fenced_route_blocks () =
  with_shard (fun fx ->
      Alcotest.(check bool) "claim" true (Result.is_ok (Shard.claim_handoff fx.sh));
      Alcotest.(check bool) "an idle shard drains at once" true (Shard.fence fx.sh ~timeout_s:1.);
      let th, result = route_async fx [ set "f" "1" ] in
      Thread.delay 0.05;
      Alcotest.(check bool) "blocked behind the fence" true (Atomic.get result = None);
      Shard.end_handoff fx.sh ~moved:false;
      Thread.join th;
      match Atomic.get result with
      | Some r ->
          check_route "after the abort" Shard.Inline r;
          Shard.run_inline fx.sh [ set "f" "1" ] ~attempt:(admit fx) ~refuse:ignore;
          check_inflight "after the inline apply" fx
      | None -> Alcotest.fail "route never returned")

let test_fence_ending_in_flip () =
  with_shard (fun fx ->
      Alcotest.(check bool) "claim" true (Result.is_ok (Shard.claim_handoff fx.sh));
      ignore (Shard.fence fx.sh ~timeout_s:1.);
      let th, result = route_async fx [ set "f" "1" ] in
      Thread.delay 0.05;
      Shard.end_handoff fx.sh ~moved:true;
      Thread.join th;
      (match Atomic.get result with
      | Some r -> check_route "after the flip" Shard.Not_owner r
      | None -> Alcotest.fail "route never returned");
      Alcotest.(check bool) "no longer owned" false (Shard.owned fx.sh);
      check_inflight "not counted" fx)

let test_unowned_not_owner () =
  with_shard (fun fx ->
      Shard.set_owned fx.sh false;
      check_route "unowned" Shard.Not_owner (Shard.route fx.sh [ set "u" "1" ]);
      Alcotest.(check bool) "no handoff of an unowned shard" true
        (Result.is_error (Shard.claim_handoff fx.sh));
      check_inflight "not counted" fx)

let test_stopping_refuses () =
  with_shard (fun fx ->
      Shard.stop fx.pool;
      check_route "stopping" Shard.Shutting_down (Shard.route fx.sh [ set "s" "1" ]);
      Alcotest.(check int) "no worker starts after stop" 0 (Atomic.get fx.spawns);
      check_inflight "not counted" fx)

let test_first_pushes_spawn_once () =
  for round = 1 to 10 do
    with_shard (fun fx ->
        let routed = Atomic.make 0 in
        let racer key () =
          check_route "quiet shard" Shard.Inline (Shard.route fx.sh [ set key "1" ]);
          Atomic.incr routed;
          while Atomic.get routed < 2 do
            Domain.cpu_relax ()
          done;
          (* Both refused at once: two first pushes race to start the
             workers. *)
          Shard.run_inline fx.sh [ set key "1" ] ~attempt:refuse_all ~refuse:(fun _ ->
              Alcotest.fail "refused")
        in
        let racers = [ Domain.spawn (racer "x"); Domain.spawn (racer "y") ] in
        List.iter Domain.join racers;
        Alcotest.(check int)
          (Printf.sprintf "round %d: spawned once" round)
          2 (Atomic.get fx.spawns);
        Alcotest.(check int) "the pool holds them" 2 (Shard.spawned fx.pool);
        settle "both lists" fx;
        check_value fx "x" "1";
        check_value fx "y" "1")
  done

let test_inflight_settles_on_every_path () =
  with_shard (fun fx ->
      (* inline, applied *)
      let items = [ set "a" "1"; set "b" "1" ] in
      ignore (Shard.route fx.sh items);
      Shard.run_inline fx.sh items ~attempt:(admit fx) ~refuse:ignore;
      check_inflight "inline" fx;
      (* inline refused, then applied by a worker *)
      ignore (Shard.route fx.sh [ set "c" "1" ]);
      Shard.run_inline fx.sh [ set "c" "1" ] ~attempt:refuse_all ~refuse:ignore;
      settle "inline refused to the ring" fx;
      (* a killed worker's claimed batch, re-dispatched; once the victim
         parks, the shard is quiet again and a list may run inline *)
      Shard.kill fx.sh ~lpid:1;
      for i = 1 to 20 do
        let items = [ set (Printf.sprintf "r%d" i) "1" ] in
        if Shard.route fx.sh items = Shard.Inline then
          Shard.run_inline fx.sh items ~attempt:(admit fx) ~refuse:ignore
      done;
      settle "a kill's re-dispatch" fx;
      (* not owned *)
      Shard.set_owned fx.sh false;
      ignore (Shard.route fx.sh [ set "d" "1" ]);
      check_inflight "not owned" fx);
  with_shard (fun fx ->
      (* inline refused, and the ring refused too: stop has begun *)
      ignore (Shard.route fx.sh [ set "e" "1" ]);
      Shard.stop fx.pool;
      let refused = ref 0 in
      Shard.run_inline fx.sh [ set "e" "1" ] ~attempt:refuse_all ~refuse:(fun items ->
          refused := List.length items);
      Alcotest.(check int) "refused" 1 !refused;
      check_inflight "refused after stop" fx;
      ignore (Shard.route fx.sh [ set "e" "1" ]);
      check_inflight "route refused" fx);
  with_shard ~gated:true (fun fx ->
      (* queued at shutdown: refused by [retire] *)
      let items = [ set "q" "1"; set "q" "2" ] in
      ignore (Shard.route fx.sh items);
      Shard.run_inline fx.sh items ~attempt:refuse_all ~refuse:ignore;
      let refused = ref 0 in
      Shard.retire fx.pool [| fx.sh |] ~drain_timeout_s:0.05 ~refuse:(fun _ ->
          incr refused;
          Atomic.set fx.gate true);
      Alcotest.(check int) "leftovers refused" 2 !refused;
      check_inflight "shutdown leftovers" fx)

let test_handoff_claim_exclusive () =
  with_shard (fun fx ->
      Alcotest.(check bool) "first claim" true (Result.is_ok (Shard.claim_handoff fx.sh));
      Alcotest.(check bool) "second claim refused" true
        (Result.is_error (Shard.claim_handoff fx.sh));
      Shard.end_handoff fx.sh ~moved:false;
      Alcotest.(check bool) "claimable again after an abort" true
        (Result.is_ok (Shard.claim_handoff fx.sh));
      Shard.end_handoff fx.sh ~moved:true;
      Alcotest.(check bool) "not after the flip" true (Result.is_error (Shard.claim_handoff fx.sh)))

let test_table_reads_route_and_survive_wedging () =
  with_table ~shards:4 ~n:2 (fun table ->
      for i = 1 to 20 do
        table_set table ~pid:0 (Printf.sprintf "key%d" i) (string_of_int i)
      done;
      for i = 1 to 20 do
        Alcotest.(check (option string))
          (Printf.sprintf "routed read key%d" i)
          (Some (string_of_int i))
          (table_read table (Printf.sprintf "key%d" i))
      done;
      Alcotest.(check (option string)) "missing key" None (table_read table "absent");
      (* Wedge one shard's only slot: its keys still read; other shards
         still mutate. *)
      let victim = shard_of table "key1" in
      ignore
        (Kex_runtime.Kex_lock.Assignment.acquire
           (Kv_store.assignment (Shard.store table.(victim)))
           ~pid:0);
      Alcotest.(check (option string)) "read on wedged shard" (Some "1") (table_read table "key1");
      match
        List.find_opt
          (fun i -> shard_of table (Printf.sprintf "key%d" i) <> victim)
          (List.init 20 (fun i -> i + 1))
      with
      | Some i ->
          let key = Printf.sprintf "key%d" i in
          table_set table ~pid:1 key "fresh";
          Alcotest.(check (option string)) "other shard mutates and reads" (Some "fresh")
            (table_read table key)
      | None -> Alcotest.fail "all 20 keys hashed to one shard")

(* A batch answers what single reads answer, in key order; an unowned
   shard's keys come back as [Error shard] in their own positions, and a
   scan merges the owned shards only.  Ownership is read once per shard
   the batch touches: while another domain flips shard 1 back and forth,
   each batch answers all of shard 1's keys from its store or all of them
   [Error 1], never a mix. *)
let test_table_read_many_per_shard_ownership () =
  with_table ~shards:4 ~n:1 (fun table ->
      for i = 0 to 39 do
        table_set table ~pid:0 (Printf.sprintf "key%d" i) (string_of_int i)
      done;
      let keys = Array.init 44 (fun i -> Printf.sprintf "key%d" i) in
      Shard.set_owned table.(1) false;
      let got = Shard.read_many table keys in
      Array.iteri
        (fun i key ->
          let shard = shard_of table key in
          let want =
            if shard = 1 then Error 1 else Ok (Kv_store.read (Shard.store table.(shard)) ~key)
          in
          if got.(i) <> want then Alcotest.failf "%s (shard %d) answered wrongly" key shard)
        keys;
      let owned_from_key2 =
        List.filter_map
          (fun i ->
            let key = Printf.sprintf "key%d" i in
            if shard_of table key <> 1 && key >= "key2" then Some (key, string_of_int i) else None)
          (List.init 40 Fun.id)
      in
      Alcotest.(check (list (pair string string)))
        "scan merges the owned shards"
        (List.filteri (fun i _ -> i < 5) (List.sort compare owned_from_key2))
        (Shard.scan table ~start:"key2" ~count:5);
      let split = ref 0 and batches = ref 0 in
      let stop = Atomic.make false and flips = Atomic.make 0 in
      let flipper =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Shard.set_owned table.(1) (Atomic.fetch_and_add flips 1 land 1 = 0)
            done)
      in
      let deadline = Unix.gettimeofday () +. 5. in
      while (!batches < 2000 || Atomic.get flips < 2000) && Unix.gettimeofday () < deadline do
        let got = Shard.read_many table keys in
        let moved = ref 0 and read = ref 0 in
        Array.iteri
          (fun i key ->
            if shard_of table key = 1 then
              match got.(i) with Error _ -> incr moved | Ok _ -> incr read)
          keys;
        if !moved > 0 && !read > 0 then incr split;
        incr batches
      done;
      Atomic.set stop true;
      Domain.join flipper;
      Alcotest.(check int) "batches that split shard 1" 0 !split);
  with_table ~shards:1 ~n:1 (fun table ->
      table_set table ~pid:0 "key1" "1";
      let keys = [| "key1"; "absent"; "key1" |] in
      Alcotest.(check bool) "one shard, owned" true
        (Shard.read_many table keys = [| Ok (Some "1"); Ok None; Ok (Some "1") |]);
      Shard.set_owned table.(0) false;
      Alcotest.(check bool) "one shard, refused" true
        (Shard.read_many table keys = [| Error 0; Error 0; Error 0 |]))

let suite =
  [ Helpers.tc "a quiet owned shard routes inline" test_quiet_routes_inline;
    Helpers.tc "a pending kill, or a non-empty ring, routes to the ring"
      test_kill_or_backlog_routes_to_ring;
    Helpers.tc "a fenced shard's route blocks until the fence lifts" test_fenced_route_blocks;
    Helpers.tc "a route waiting out a fence that ends in a flip answers not-owner"
      test_fence_ending_in_flip;
    Helpers.tc "an unowned shard answers not-owner" test_unowned_not_owner;
    Helpers.tc "a stopping shard refuses" test_stopping_refuses;
    Helpers.tc "two concurrent first pushes spawn the workers exactly once"
      test_first_pushes_spawn_once;
    Helpers.tc "in-flight returns to 0 after every path" test_inflight_settles_on_every_path;
    Helpers.tc "a handoff claim is exclusive until it ends" test_handoff_claim_exclusive;
    Helpers.tc "the table's wait-free reads route and survive wedging"
      test_table_reads_route_and_survive_wedging;
    Helpers.tc "the table's batch read checks ownership once per shard"
      test_table_read_many_per_shard_ownership ]
