(* The linearizability checker, and linearizability of the wait-free layer
   measured on real concurrent histories. *)

open Kex_resilient

let counter_apply s = function `Add d -> (s + d, s + d) | `Get -> (s, s)

let test_sequential_history () =
  let h = History.create () in
  ignore (History.record h ~tid:0 ~op:(`Add 1) ~f:(fun () -> 1));
  ignore (History.record h ~tid:0 ~op:(`Add 2) ~f:(fun () -> 3));
  ignore (History.record h ~tid:1 ~op:`Get ~f:(fun () -> 3));
  Alcotest.(check bool) "linearizable" true
    (History.linearizable ~init:0 ~apply:counter_apply h);
  Alcotest.(check int) "three events" 3 (History.length h)

let test_wrong_result_rejected () =
  let h = History.create () in
  ignore (History.record h ~tid:0 ~op:(`Add 1) ~f:(fun () -> 1));
  (* A Get that returns a value that never existed. *)
  ignore (History.record h ~tid:1 ~op:`Get ~f:(fun () -> 42));
  Alcotest.(check bool) "rejected" false
    (History.linearizable ~init:0 ~apply:counter_apply h)

let test_stale_read_rejected () =
  (* Sequential (non-overlapping) Add 1; Add 1; then Get returning 1: the
     real-time order forces Get to see 2. *)
  let h = History.create () in
  ignore (History.record h ~tid:0 ~op:(`Add 1) ~f:(fun () -> 1));
  ignore (History.record h ~tid:1 ~op:(`Add 1) ~f:(fun () -> 2));
  ignore (History.record h ~tid:2 ~op:`Get ~f:(fun () -> 1));
  Alcotest.(check bool) "stale read rejected" false
    (History.linearizable ~init:0 ~apply:counter_apply h)

let test_concurrent_reorder_accepted () =
  (* Two overlapping Adds may linearize in either order; emulate overlap by
     recording through threads is flaky, so exercise the checker's real-time
     logic with genuinely concurrent domain recordings below instead.  Here:
     same-timestamped overlap via two domains. *)
  let h = History.create () in
  let u = Universal.create ~k:2 ~init:0 ~apply:(Universal.per_op counter_apply) in
  let worker tid () =
    for _ = 1 to 8 do
      ignore (History.record h ~tid ~op:(`Add 1) ~f:(fun () -> Universal.perform u ~tid (`Add 1)))
    done
  in
  let ds = List.init 2 (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  Alcotest.(check bool) "universal counter linearizable" true
    (History.linearizable ~init:0 ~apply:counter_apply h)

let queue_apply q op =
  match (op : [ `Enq of int | `Deq ]) with
  | `Enq v -> (q @ [ v ], -1)
  | `Deq -> ( match q with [] -> ([], 0) | v :: rest -> (rest, v))

let test_wf_queue_linearizable () =
  let h = History.create () in
  let q = Wf_queue.create ~k:3 in
  let producer tid () =
    for i = 1 to 6 do
      let v = (tid * 100) + i in
      ignore
        (History.record h ~tid ~op:(`Enq v)
           ~f:(fun () -> Wf_queue.enqueue q ~tid v; -1))
    done
  in
  let consumer tid () =
    for _ = 1 to 6 do
      ignore
        (History.record h ~tid ~op:`Deq
           ~f:(fun () -> match Wf_queue.dequeue q ~tid with Some v -> v | None -> 0))
    done
  in
  let ds =
    [ Domain.spawn (producer 0); Domain.spawn (producer 1); Domain.spawn (consumer 2) ]
  in
  List.iter Domain.join ds;
  Alcotest.(check bool) "wf queue linearizable" true
    (History.linearizable ~init:[] ~apply:queue_apply h)

let test_resilient_object_linearizable () =
  let h = History.create () in
  let obj = Resilient.create ~n:4 ~k:2 ~init:0 ~apply:(Universal.per_op counter_apply) () in
  let worker pid () =
    for _ = 1 to 7 do
      ignore
        (History.record h ~tid:pid ~op:(`Add 1)
           ~f:(fun () -> Resilient.perform obj ~pid (`Add 1)))
    done
  in
  let ds = List.init 3 (fun pid -> Domain.spawn (worker pid)) in
  List.iter Domain.join ds;
  Alcotest.(check bool) "resilient object linearizable" true
    (History.linearizable ~init:0 ~apply:counter_apply h)

let test_length_guard () =
  let h = History.create () in
  for _ = 1 to 63 do
    ignore (History.record h ~tid:0 ~op:`Get ~f:(fun () -> 0))
  done;
  Alcotest.check_raises "history too long"
    (Invalid_argument "History.linearizable: history too long (max 62 events)") (fun () ->
      ignore (History.linearizable ~init:0 ~apply:counter_apply h))

let suite =
  [ Helpers.tc "sequential history accepted" test_sequential_history;
    Helpers.tc "impossible result rejected" test_wrong_result_rejected;
    Helpers.tc "stale read rejected" test_stale_read_rejected;
    Helpers.tc "universal counter linearizable under domains" test_concurrent_reorder_accepted;
    Helpers.tc "wait-free queue linearizable under domains" test_wf_queue_linearizable;
    Helpers.tc "resilient object linearizable under domains" test_resilient_object_linearizable;
    Helpers.tc "length guard" test_length_guard ]
