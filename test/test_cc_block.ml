(* Figure 2: the cache-coherent (k+1)-exclusion building block, exercised as
   a standalone (N,k)-exclusion with trivial inner protocol when N = k+1, and
   through the inductive composition otherwise. *)

open Kexclusion
open Kexclusion.Import
open Helpers

let block ~n ~k mem = `Exclusion (Simulated.inductive mem ~block:Simulated.fig2 ~n ~k)

(* N = k+1: the pure Figure 2 building block (inner = skip). *)
let base_cases =
  [ (2, 1); (3, 2); (5, 4) ]
  |> List.concat_map (fun (n, k) ->
         [ tc
             (Printf.sprintf "(%d,%d): safety+progress across schedulers" n k)
             (exclusion_battery ~model:cc ~n ~k (block ~n ~k));
           tc
             (Printf.sprintf "(%d,%d): achieves k-way concurrency" n k)
             (utilisation_battery ~model:cc ~n ~k (block ~n ~k)) ])

let test_seven_refs_bound () =
  (* Theorem 1 basis: at N = k+1 an acquisition costs at most 7 remote
     references (5 entry + 2 exit) on a CC machine. *)
  List.iter
    (fun (n, k) ->
      List.iter
        (fun scheduler ->
          let res = run ~iterations:6 ~scheduler ~model:cc ~n ~k (block ~n ~k) in
          assert_ok res;
          Alcotest.(check bool)
            (Printf.sprintf "(%d,%d) max %d <= 7" n k (max_remote res))
            true
            (max_remote res <= 7))
        (fresh_schedulers ()))
    [ (2, 1); (3, 2); (4, 3); (6, 5) ]

let test_solo_cost_is_two () =
  (* Without contention the process takes the faa and never publishes Q:
     entry costs 1 (faa) + 1 read at most... solo it's faa(X), then exit
     faa(X) + write(Q): 3 remote refs total. *)
  let res = run ~iterations:4 ~participants:[ 0 ] ~model:cc ~n:3 ~k:2 (block ~n:3 ~k:2) in
  assert_ok res;
  Alcotest.(check int) "solo cost" 3 (max_remote res)

let test_waiter_is_released () =
  (* Force the waiting path deterministically: k processes park in the CS
     (long dwell) while one more arrives, waits on Q, and is released. *)
  let res = run ~iterations:3 ~cs_delay:12 ~model:cc ~n:3 ~k:2 (block ~n:3 ~k:2) in
  assert_ok res;
  Alcotest.(check int) "full concurrency" 2 res.Runner.max_in_cs

let test_resilience_k_minus_one () =
  resilience_battery ~model:cc ~n:4 ~k:3
    ~failures:[ (0, Kex_sim.Failures.In_cs 1); (1, Kex_sim.Failures.In_entry { acquisition = 2; after_steps = 1 }) ]
    (block ~n:4 ~k:3) ()

let test_saturation_blocks () = saturation_battery ~model:cc ~n:4 ~k:2 (block ~n:4 ~k:2) ()

let test_failure_of_waiter_harmless () =
  (* A process that crashes while waiting in the entry section consumes one
     slot (its faa stands) but must not block the remaining k-1. *)
  resilience_battery ~model:cc ~n:3 ~k:2
    ~failures:[ (2, Kex_sim.Failures.In_entry { acquisition = 1; after_steps = 3 }) ]
    (block ~n:3 ~k:2) ()

let suite =
  base_cases
  @ [ tc "theorem 1 basis: <= 7 remote refs at n=k+1" test_seven_refs_bound;
      tc "solo acquisition costs 3 remote refs" test_solo_cost_is_two;
      tc "waiter parked on Q is released" test_waiter_is_released;
      tc "tolerates k-1 failures" test_resilience_k_minus_one;
      tc "k failures exhaust the slots" test_saturation_blocks;
      tc "crash while waiting is harmless" test_failure_of_waiter_harmless ]
