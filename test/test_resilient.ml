(* The resilient-objects layer: universal construction (with helping),
   wait-free objects, and the full Section 1 methodology wrapper. *)

open Kex_resilient

let counter_apply s = function `Add d -> (s + d, s + d) | `Get -> (s, s)

(* ---------------------------- Universal -------------------------------- *)

let test_universal_sequential () =
  let u = Universal.create ~k:3 ~init:0 ~apply:(Universal.per_op counter_apply) in
  Alcotest.(check int) "first add" 5 (Universal.perform u ~tid:0 (`Add 5));
  Alcotest.(check int) "second add" 7 (Universal.perform u ~tid:0 (`Add 2));
  Alcotest.(check int) "get" 7 (Universal.perform u ~tid:2 `Get);
  Alcotest.(check int) "state" 7 (Universal.state u);
  Alcotest.(check int) "three ops applied" 3 (Universal.applied_count u)

let test_universal_helping () =
  (* tid 0 announces and "crashes".  The designated beneficiary rotates with
     the sequence number, so the dead operation is guaranteed to be
     linearized within k appends by live threads: after two operations of
     tid 1 (k = 2), tid 0's op must be in. *)
  let u = Universal.create ~k:2 ~init:0 ~apply:(Universal.per_op counter_apply) in
  Universal.announce_only u ~tid:0 [ `Add 100 ];
  ignore (Universal.perform u ~tid:1 (`Add 1));
  let r = Universal.perform u ~tid:1 (`Add 1) in
  Alcotest.(check int) "all three ops applied" 3 (Universal.applied_count u);
  Alcotest.(check int) "state includes the dead op" 102 (Universal.state u);
  Alcotest.(check int) "live op linearized last" 102 r

let test_universal_tid_validation () =
  let u = Universal.create ~k:2 ~init:0 ~apply:(Universal.per_op counter_apply) in
  Alcotest.check_raises "tid out of range" (Invalid_argument "Universal: tid 2 out of range 0..1")
    (fun () -> ignore (Universal.perform u ~tid:2 `Get))

let test_universal_linearizable_under_domains () =
  (* k domains each add 1, m times.  The returned post-values must be a
     permutation of 1..k*m — the signature of a linearizable counter. *)
  let k = 3 and m = 120 in
  let u = Universal.create ~k ~init:0 ~apply:(Universal.per_op counter_apply) in
  let results = Array.make k [] in
  let worker tid () =
    for _ = 1 to m do
      results.(tid) <- Universal.perform u ~tid (`Add 1) :: results.(tid)
    done
  in
  let domains = List.init k (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join domains;
  let all = List.sort compare (List.concat (Array.to_list results)) in
  Alcotest.(check int) "final state" (k * m) (Universal.state u);
  Alcotest.(check (list int)) "post-values are 1..k*m" (List.init (k * m) (fun i -> i + 1)) all

(* ------------------------------ Objects -------------------------------- *)

let test_queue_fifo () =
  let q = Wf_queue.create ~k:2 in
  List.iter (fun v -> Wf_queue.enqueue q ~tid:0 v) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "peek" (Some 1) (Wf_queue.peek q);
  Alcotest.(check int) "length" 3 (Wf_queue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Wf_queue.dequeue q ~tid:1);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Wf_queue.dequeue q ~tid:0);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Wf_queue.dequeue q ~tid:1);
  Alcotest.(check (option int)) "empty" None (Wf_queue.dequeue q ~tid:0)

let test_queue_conservation_under_domains () =
  (* Producers enqueue disjoint values; consumers drain.  Nothing may be
     lost or duplicated. *)
  let k = 4 and per = 80 in
  let q = Wf_queue.create ~k in
  let produced tid = List.init per (fun i -> (tid * 10_000) + i) in
  let consumed = Array.make k [] in
  let producer tid () = List.iter (fun v -> Wf_queue.enqueue q ~tid v) (produced tid) in
  let consumer tid stop () =
    let rec drain () =
      match Wf_queue.dequeue q ~tid with
      | Some v ->
          consumed.(tid) <- v :: consumed.(tid);
          drain ()
      | None -> if Atomic.get stop then () else drain ()
    in
    drain ()
  in
  let stop = Atomic.make false in
  let producers = List.init 2 (fun tid -> Domain.spawn (producer tid)) in
  let consumers = List.init 2 (fun i -> Domain.spawn (consumer (2 + i) stop)) in
  List.iter Domain.join producers;
  Atomic.set stop true;
  List.iter Domain.join consumers;
  (* Drain any residue left after the consumers observed the stop flag. *)
  let rec residue acc = match Wf_queue.dequeue q ~tid:0 with Some v -> residue (v :: acc) | None -> acc in
  let got =
    List.sort compare (residue [] @ List.concat (Array.to_list consumed))
  in
  let expected = List.sort compare (produced 0 @ produced 1) in
  Alcotest.(check (list int)) "conservation" expected got

let test_stack_lifo () =
  let s = Wf_stack.create ~k:2 in
  Wf_stack.push s ~tid:0 1;
  Wf_stack.push s ~tid:1 2;
  Alcotest.(check (option int)) "top" (Some 2) (Wf_stack.top s);
  Alcotest.(check (option int)) "lifo" (Some 2) (Wf_stack.pop s ~tid:0);
  Alcotest.(check (option int)) "lifo 2" (Some 1) (Wf_stack.pop s ~tid:1);
  Alcotest.(check (option int)) "empty" None (Wf_stack.pop s ~tid:0)

let test_register_ops () =
  let r = Wf_register.create ~k:2 ~init:10 in
  Alcotest.(check int) "read" 10 (Wf_register.read r);
  Wf_register.write r ~tid:0 20;
  Alcotest.(check int) "written" 20 (Wf_register.read r);
  Alcotest.(check int) "modify returns previous" 20 (Wf_register.modify r ~tid:1 (fun v -> v * 2));
  Alcotest.(check int) "modified" 40 (Wf_register.read r);
  Alcotest.(check bool) "cas hit" true (Wf_register.compare_and_swap r ~tid:0 ~expected:40 ~desired:1);
  Alcotest.(check bool) "cas miss" false (Wf_register.compare_and_swap r ~tid:0 ~expected:40 ~desired:2);
  Alcotest.(check int) "final" 1 (Wf_register.read r)

let test_register_modify_under_domains () =
  (* modify is atomic: k domains each apply +1 m times via modify. *)
  let k = 3 and m = 100 in
  let r = Wf_register.create ~k ~init:0 in
  let worker tid () =
    for _ = 1 to m do
      ignore (Wf_register.modify r ~tid (fun v -> v + 1))
    done
  in
  let ds = List.init k (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" (k * m) (Wf_register.read r)

let test_counter_direct () =
  let c = Wf_counter.create ~init:10 () in
  Wf_counter.add c 5;
  Wf_counter.incr c;
  Alcotest.(check int) "value" 16 (Wf_counter.get c);
  Alcotest.(check int) "add_and_get" 20 (Wf_counter.add_and_get c 4)

(* ----------------------------- Resilient ------------------------------- *)

let test_resilient_counter_end_to_end () =
  let n = 6 and k = 3 and per = 80 in
  let obj = Resilient.create ~n ~k ~init:0 ~apply:(Universal.per_op counter_apply) () in
  let worker pid () =
    for _ = 1 to per do
      ignore (Resilient.perform obj ~pid (`Add 1))
    done
  in
  let domains = List.init n (fun pid -> Domain.spawn (worker pid)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "all increments linearized" (n * per) (Resilient.read obj);
  Alcotest.(check int) "operation count" (n * per) (Resilient.operations obj)

let test_resilient_survives_crashed_holder () =
  (* A process dies *inside* an operation: it holds a name forever and its
     announced op is half-done.  With k = 2 that is the maximal tolerated
     failure (k-1 = 1).  Everyone else must still complete, and the dead
     op must be linearized by helpers. *)
  let n = 4 and k = 2 in
  let obj = Resilient.create ~n ~k ~init:0 ~apply:(Universal.per_op counter_apply) () in
  (* Simulated crash: acquire a name, announce, stop forever. *)
  let dead_name = Kex_runtime.Kex_lock.Assignment.acquire (Resilient.assignment obj) ~pid:0 in
  Universal.announce_only (Resilient.inner obj) ~tid:dead_name [ `Add 1000 ];
  let worker pid () =
    for _ = 1 to 50 do
      ignore (Resilient.perform obj ~pid (`Add 1))
    done
  in
  let domains = List.init 3 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  Alcotest.(check int) "dead op helped + all live ops" (1000 + 150) (Resilient.read obj)

let test_resilient_effectively_wait_free_at_low_contention () =
  (* With a single active process (contention 1 <= k), operations complete
     without ever waiting — a bounded number of steps.  We can't count steps
     directly, but we can check completion with every other process absent. *)
  let obj = Resilient.create ~n:8 ~k:2 ~init:0 ~apply:(Universal.per_op counter_apply) () in
  for _ = 1 to 100 do
    ignore (Resilient.perform obj ~pid:5 (`Add 1))
  done;
  Alcotest.(check int) "solo progress" 100 (Resilient.read obj)

(* The read plane is the universal object's head.  Two writer domains
   with distinct pids increment through [perform] while three reader
   domains loop on [read_versioned].  A counter's state after v increments
   is v, so every pair a reader sees must have state = version (never
   torn), and its versions must never decrease. *)
let test_resilient_head_reads_under_domains () =
  let writers = 2 and readers = 3 and per_writer = 2_000 in
  let obj = Resilient.create ~n:writers ~k:2 ~init:0 ~apply:(Universal.per_op counter_apply) () in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let writer pid () =
    for _ = 1 to per_writer do
      ignore (Resilient.perform obj ~pid (`Add 1))
    done
  in
  let reader () =
    let last = ref (-1) in
    while not (Atomic.get stop) do
      let v, s = Resilient.read_versioned obj in
      if s <> v || v < !last then Atomic.incr bad;
      last := v
    done
  in
  let rs = List.init readers (fun _ -> Domain.spawn reader) in
  let ws = List.init writers (fun pid -> Domain.spawn (writer pid)) in
  List.iter Domain.join ws;
  Atomic.set stop true;
  List.iter Domain.join rs;
  Alcotest.(check int) "no torn or backwards read" 0 (Atomic.get bad);
  let total = writers * per_writer in
  Alcotest.(check (pair int int)) "final pair is the total" (total, total)
    (Resilient.read_versioned obj)

(* A batch linearizes at its one commit.  Writer domains perform batches
   that set two registers to the same fresh value; reader domains on
   [read_versioned] must never see the registers differ, which a reader
   that could see a prefix of a batch would.  Versions count operations,
   so every version a reader sees is even. *)
let test_resilient_batch_seen_whole () =
  let writers = 2 and readers = 2 and per_writer = 3_000 in
  let apply (a, b) = function `A v -> ((v, b), ()) | `B v -> ((a, v), ()) in
  let obj = Resilient.create ~n:writers ~k:2 ~init:(0, 0) ~apply:(Universal.per_op apply) () in
  let stop = Atomic.make false in
  let torn = Atomic.make 0 and odd = Atomic.make 0 in
  let writer pid () =
    for i = 1 to per_writer do
      let v = (i * writers) + pid in
      ignore (Resilient.perform_batch obj ~pid [ `A v; `B v ])
    done
  in
  let reader () =
    while not (Atomic.get stop) do
      let version, (a, b) = Resilient.read_versioned obj in
      if a <> b then Atomic.incr torn;
      if version mod 2 <> 0 then Atomic.incr odd
    done
  in
  let rs = List.init readers (fun _ -> Domain.spawn reader) in
  let ws = List.init writers (fun pid -> Domain.spawn (writer pid)) in
  List.iter Domain.join ws;
  Atomic.set stop true;
  List.iter Domain.join rs;
  Alcotest.(check int) "no reader saw part of a batch" 0 (Atomic.get torn);
  Alcotest.(check int) "no reader saw an odd version" 0 (Atomic.get odd);
  Alcotest.(check int) "versions count operations" (2 * writers * per_writer)
    (Resilient.operations obj)

(* A 3-op batch announced by a tid that then crashes is applied by the
   next perform of another tid: once, in list order, and counted as three
   operations.  With k = 2 the dead tid 1 is the designated beneficiary of
   the first commit, so tid 0's very next perform applies the dead batch
   before its own operation.  Nothing races, so no apply is re-executed:
   [apply_calls - applied_count] stays 0. *)
let test_universal_dead_batch_helped () =
  let apply s = function `Add d -> (s + d, s + d) | `Mul m -> (s * m, s * m) in
  let u = Universal.create ~k:2 ~init:0 ~apply:(Universal.per_op apply) in
  Universal.announce_only u ~tid:1 [ `Add 1; `Mul 10; `Add 2 ];
  Alcotest.(check int) "announcing applies nothing" 0 (Universal.applied_count u);
  (* In list order: ((0 + 1) * 10) + 2 = 12; any other order differs. *)
  Alcotest.(check int) "dead batch in order, then the live op" 112
    (Universal.perform u ~tid:0 (`Add 100));
  Alcotest.(check int) "four operations" 4 (Universal.applied_count u);
  Alcotest.(check int) "no re-execution" 0 (Universal.apply_calls u - Universal.applied_count u);
  Alcotest.(check (list int)) "later batches see it once" [ 113; 226 ]
    (Universal.perform_batch u ~tid:0 [ `Add 1; `Mul 2 ]);
  Alcotest.(check (pair int int)) "committed pair" (6, 226) (Universal.committed u);
  Alcotest.(check int) "still no re-execution" 0
    (Universal.apply_calls u - Universal.applied_count u)

let suite =
  [ Helpers.tc "universal: sequential semantics" test_universal_sequential;
    Helpers.tc "universal: helpers finish dead ops" test_universal_helping;
    Helpers.tc "universal: tid validation" test_universal_tid_validation;
    Helpers.tc "universal: linearizable under domains" test_universal_linearizable_under_domains;
    Helpers.tc "queue: FIFO" test_queue_fifo;
    Helpers.tc "queue: conservation under domains" test_queue_conservation_under_domains;
    Helpers.tc "stack: LIFO" test_stack_lifo;
    Helpers.tc "register: compound RMW operations" test_register_ops;
    Helpers.tc "register: modify is atomic under domains" test_register_modify_under_domains;
    Helpers.tc "counter: direct wait-free ops" test_counter_direct;
    Helpers.tc "resilient counter end to end" test_resilient_counter_end_to_end;
    Helpers.tc "resilient object survives a crash mid-operation"
      test_resilient_survives_crashed_holder;
    Helpers.tc "effectively wait-free when contention <= k"
      test_resilient_effectively_wait_free_at_low_contention;
    Helpers.tc_slow "head reads never torn under concurrent domains"
      test_resilient_head_reads_under_domains;
    Helpers.tc_slow "a batch is seen whole or not at all" test_resilient_batch_seen_whole;
    Helpers.tc "universal: a dead tid's batch is applied once, in order"
      test_universal_dead_batch_helped ]
