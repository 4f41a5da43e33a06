(* The MCS queue lock (reference [12]) — the k = 1 efficiency target of the
   paper's concluding section — written once in [Figures] and run by both
   of its instances: the simulator ([Simulated.mcs]) and real atomics
   ([Kex_runtime.Direct.mcs]). *)

open Kexclusion
open Kexclusion.Import
open Helpers

let mcs ~n mem = `Exclusion (Simulated.mcs mem ~n)

let batteries =
  [ 2; 3; 6 ]
  |> List.concat_map (fun n ->
         [ tc
             (Printf.sprintf "sim (%d,1): safety+progress CC" n)
             (exclusion_battery ~model:cc ~n ~k:1 (mcs ~n));
           tc
             (Printf.sprintf "sim (%d,1): safety+progress DSM" n)
             (exclusion_battery ~model:dsm ~n ~k:1 (mcs ~n)) ])

let test_constant_remote_refs () =
  (* O(1) per acquisition on both models, independent of N and of dwell. *)
  List.iter
    (fun model ->
      List.iter
        (fun n ->
          let res = run ~iterations:4 ~cs_delay:10 ~model ~n ~k:1 (mcs ~n) in
          assert_ok res;
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: %d <= 7" n (max_remote res))
            true
            (max_remote res <= 7))
        [ 2; 4; 8; 16 ])
    [ cc; dsm ]

let test_local_spin () =
  let cost dwell =
    let res = run ~iterations:3 ~cs_delay:dwell ~model:dsm ~n:4 ~k:1 (mcs ~n:4) in
    assert_ok res;
    max_remote res
  in
  Alcotest.(check int) "dwell-independent" (cost 100) (cost 500)

let test_fifo_order () =
  (* Queue lock: strict FIFO under round-robin arrivals — every process
     completes the same number of acquisitions. *)
  let res = run ~iterations:5 ~cs_delay:4 ~model:cc ~n:5 ~k:1 (mcs ~n:5) in
  assert_ok res;
  Array.iter
    (fun (p : Runner.proc_stats) -> Alcotest.(check int) "5 acquisitions" 5 p.acquisitions)
    res.Runner.procs

let test_not_resilient () =
  (* The documented trade: a waiter that crashes in the queue wedges its
     successors — unlike the paper's k-exclusion algorithms. *)
  let res =
    run ~iterations:3 ~cs_delay:8 ~step_budget:200_000
      ~failures:[ (1, Kex_sim.Failures.In_entry { acquisition = 1; after_steps = 2 }) ]
      ~model:cc ~n:4 ~k:1 (mcs ~n:4)
  in
  Alcotest.(check (list string)) "safe" [] res.Runner.violations;
  Alcotest.(check bool) "but wedged" true res.stalled

(* ------------------------------ runtime --------------------------------- *)

let with_lock (lock : Kex_runtime.Direct.protocol) ~pid f =
  lock.entry ~pid;
  Fun.protect ~finally:(fun () -> lock.exit ~pid) f

let test_runtime_mutual_exclusion () =
  let lock = Kex_runtime.Direct.mcs 4 ~n:4 in
  let in_cs = Atomic.make 0 in
  let violations = Atomic.make 0 in
  let worker pid () =
    for _ = 1 to 200 do
      with_lock lock ~pid (fun () ->
          if 1 + Atomic.fetch_and_add in_cs 1 > 1 then ignore (Atomic.fetch_and_add violations 1);
          Domain.cpu_relax ();
          ignore (Atomic.fetch_and_add in_cs (-1)))
    done
  in
  let domains = List.init 4 (fun pid -> Domain.spawn (worker pid)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "mutual exclusion" 0 (Atomic.get violations)

let test_runtime_handover_race () =
  (* Exercise the release/link race path: many short handovers. *)
  let lock = Kex_runtime.Direct.mcs 2 ~n:2 in
  let counter = ref 0 in
  let worker pid () =
    for _ = 1 to 500 do
      with_lock lock ~pid (fun () -> incr counter)
    done
  in
  let domains = List.init 2 (fun pid -> Domain.spawn (worker pid)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "all increments" 1000 !counter

let suite =
  batteries
  @ [ tc "O(1) remote refs per acquisition" test_constant_remote_refs;
      tc "spins locally (dwell-independent)" test_local_spin;
      tc "FIFO service" test_fifo_order;
      tc "crashed waiter wedges successors (documented trade)" test_not_resilient;
      tc "runtime: mutual exclusion under domains" test_runtime_mutual_exclusion;
      tc "runtime: handover race" test_runtime_handover_race ]
