(* Wqueue bookkeeping and wakeups: [length] must count the re-dispatch
   (front) list as well as the back queue — via the O(1) counter, not a
   list walk — through pushes, front-pushes, pops, batch pops and close;
   [push_list] is one ordered, all-or-nothing enqueue; and the
   deduplicated wakeup never strands a sleeping consumer next to a
   backlog. *)

module Wqueue = Kex_service.Wqueue

let test_length_tracks_both_lanes () =
  let q : int Wqueue.t = Wqueue.create () in
  Alcotest.(check int) "empty" 0 (Wqueue.length q);
  Alcotest.(check bool) "push 1" true (Wqueue.push q 1);
  Alcotest.(check bool) "push 2" true (Wqueue.push q 2);
  Alcotest.(check int) "back only" 2 (Wqueue.length q);
  Alcotest.(check bool) "push_front 0" true (Wqueue.push_front q 0);
  Alcotest.(check int) "front counted" 3 (Wqueue.length q);
  Alcotest.(check (option int)) "front has priority" (Some 0) (Wqueue.pop q);
  Alcotest.(check int) "pop decrements" 2 (Wqueue.length q);
  Alcotest.(check bool) "push_front 9" true (Wqueue.push_front q 9);
  Alcotest.(check bool) "push_front 8" true (Wqueue.push_front q 8);
  Alcotest.(check int) "front refilled" 4 (Wqueue.length q);
  (* Batch pop drains front (in order) before the back queue. *)
  Alcotest.(check (list int)) "dispatch order" [ 8; 9; 1 ] (Wqueue.pop_batch q ~max:3);
  Alcotest.(check int) "batch decremented both lanes" 1 (Wqueue.length q);
  Alcotest.(check (list int)) "rest" [ 2 ] (Wqueue.pop_batch q ~max:8);
  Alcotest.(check int) "drained" 0 (Wqueue.length q)

let test_close_resets_length () =
  let q : int Wqueue.t = Wqueue.create () in
  ignore (Wqueue.push q 1);
  ignore (Wqueue.push_front q 0);
  Alcotest.(check (list int)) "leftovers in dispatch order" [ 0; 1 ] (Wqueue.close q);
  Alcotest.(check int) "closed queue is empty" 0 (Wqueue.length q);
  Alcotest.(check bool) "push refused after close" false (Wqueue.push q 2);
  Alcotest.(check bool) "push_front refused after close" false (Wqueue.push_front q 2);
  Alcotest.(check int) "still empty" 0 (Wqueue.length q)

let test_push_list_order_and_close () =
  let q : int Wqueue.t = Wqueue.create () in
  Alcotest.(check bool) "push_list accepted" true (Wqueue.push_list q [ 1; 2; 3 ]);
  Alcotest.(check bool) "push after list" true (Wqueue.push q 4);
  Alcotest.(check bool) "empty list accepted" true (Wqueue.push_list q []);
  Alcotest.(check bool) "second list" true (Wqueue.push_list q [ 5; 6 ]);
  Alcotest.(check int) "every item counted" 6 (Wqueue.length q);
  Alcotest.(check int) "pushes count items" 6 (Wqueue.pushes q);
  Alcotest.(check int) "no consumer asleep, no wakeup" 0 (Wqueue.wakeups q);
  Alcotest.(check (list int)) "list order kept" [ 1; 2; 3; 4 ] (Wqueue.pop_batch q ~max:4);
  Alcotest.(check (list int)) "leftovers" [ 5; 6 ] (Wqueue.close q);
  Alcotest.(check bool) "push_list refused after close" false (Wqueue.push_list q [ 7; 8 ]);
  Alcotest.(check int) "refused items not queued" 0 (Wqueue.length q);
  Alcotest.(check int) "refused items not counted" 6 (Wqueue.pushes q)

(* Wait for [pred] until [deadline_s] passes; false on timeout. *)
let await_until ~deadline_s pred =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* The lost-wakeup guard for the deduplicated signal: one push_list of 8
   sends one signal, and the consumer it wakes leaves a backlog of 4, which
   must wake the second sleeper — no further push arrives to do it. *)
let test_backlog_hands_wakeup_on () =
  let q : int Wqueue.t = Wqueue.create () in
  let got = Array.make 2 None in
  let consumer i = Thread.create (fun () -> got.(i) <- Some (Wqueue.pop_batch q ~max:4)) () in
  let threads = [ consumer 0; consumer 1 ] in
  (* Let both block in the wait before the push lands. *)
  Thread.delay 0.2;
  Alcotest.(check bool) "push_list" true (Wqueue.push_list q (List.init 8 Fun.id));
  let both = await_until ~deadline_s:5. (fun () -> got.(0) <> None && got.(1) <> None) in
  if not both then begin
    ignore (Wqueue.close q);
    List.iter Thread.join threads;
    Alcotest.fail "second consumer never woke: the backlog did not pass the wakeup on"
  end;
  List.iter Thread.join threads;
  let batches = List.filter_map Fun.id (Array.to_list got) in
  Alcotest.(check (list int)) "each consumer took a full batch" [ 4; 4 ]
    (List.map List.length batches);
  Alcotest.(check (list int)) "all 8 delivered once" (List.init 8 Fun.id)
    (List.sort compare (List.concat batches));
  Alcotest.(check int) "one signal per sleeper" 2 (Wqueue.wakeups q)

(* Multi-domain stress: producers mix single pushes and list pushes,
   consumers re-dispatch a random subset of each batch to the front (the
   crashed-worker path).  Every item is delivered exactly once, back-lane
   FIFO holds per producer as each consumer sees it, and close ends every
   consumer within the watchdog. *)
type stress_item = { producer : int; seq : int; attempt : int }

let test_stress_exactly_once () =
  let producers = 3 and consumers = 4 and per_producer = 20_000 in
  let total = producers * per_producer in
  let q : stress_item Wqueue.t = Wqueue.create () in
  let delivered = Array.init producers (fun _ -> Array.make per_producer 0) in
  let delivered_n = Atomic.make 0 in
  let fifo_violations = Atomic.make 0 in
  let consumer_loop c () =
    let rng = Random.State.make [| 17; c |] in
    let last_fresh = Array.make producers (-1) in
    let rec loop () =
      match Wqueue.pop_batch q ~max:8 with
      | [] -> ()
      | batch ->
          let redo, keep =
            List.partition (fun it -> it.attempt < 3 && Random.State.int rng 8 = 0) batch
          in
          List.iter
            (fun it ->
              if it.attempt = 0 then begin
                if it.seq <= last_fresh.(it.producer) then Atomic.incr fifo_violations;
                last_fresh.(it.producer) <- it.seq
              end)
            batch;
          List.iter
            (fun it -> ignore (Wqueue.push_front q { it with attempt = it.attempt + 1 }))
            (List.rev redo);
          List.iter
            (fun it ->
              (* Each slot is written by the one consumer delivering it. *)
              delivered.(it.producer).(it.seq) <- delivered.(it.producer).(it.seq) + 1;
              Atomic.incr delivered_n)
            keep;
          loop ()
    in
    loop ()
  in
  let producer_loop p () =
    let rng = Random.State.make [| 29; p |] in
    let rec go seq =
      if seq < per_producer then begin
        let n = min (1 + Random.State.int rng 8) (per_producer - seq) in
        let items = List.init n (fun i -> { producer = p; seq = seq + i; attempt = 0 }) in
        let ok =
          match items with [ it ] -> Wqueue.push q it | _ -> Wqueue.push_list q items
        in
        if not ok then failwith "push refused before close";
        go (seq + n)
      end
    in
    go 0
  in
  let cons = List.init consumers (fun c -> Domain.spawn (consumer_loop c)) in
  let prods = List.init producers (fun p -> Domain.spawn (producer_loop p)) in
  List.iter Domain.join prods;
  let finished = await_until ~deadline_s:20. (fun () -> Atomic.get delivered_n >= total) in
  let leftovers = Wqueue.close q in
  let exited = Atomic.make 0 in
  let joiner = Thread.create (fun () -> List.iter Domain.join cons; Atomic.incr exited) () in
  if not (await_until ~deadline_s:5. (fun () -> Atomic.get exited = 1)) then
    Alcotest.fail "consumers still blocked after close";
  Thread.join joiner;
  Alcotest.(check bool) "all items delivered before the deadline" true finished;
  Alcotest.(check int) "nothing left at close" 0 (List.length leftovers);
  Alcotest.(check int) "delivered count" total (Atomic.get delivered_n);
  Array.iteri
    (fun p counts ->
      Array.iteri
        (fun seq n ->
          if n <> 1 then Alcotest.failf "producer %d item %d delivered %d times" p seq n)
        counts)
    delivered;
  Alcotest.(check int) "per-producer FIFO on the back lane" 0 (Atomic.get fifo_violations)

let suite =
  [ Helpers.tc "length counts front and back" test_length_tracks_both_lanes;
    Helpers.tc "close empties and refuses" test_close_resets_length;
    Helpers.tc "push_list keeps order, refused after close" test_push_list_order_and_close;
    Helpers.tc "a backlog hands the wakeup on" test_backlog_hands_wakeup_on;
    Helpers.tc "multi-domain stress: exactly once, FIFO, close ends" test_stress_exactly_once ]
