(* Figure 7: long-lived test-and-set renaming, standalone (driven with at
   most k concurrent users, which the enclosing k-exclusion guarantees in
   the composed algorithm). *)

open Kexclusion
open Kexclusion.Import
open Helpers

(* Workload: acquire/release names directly, with exactly c <= k concurrent
   participants so the renaming precondition holds. *)
let renaming_workload ~k mem =
  let r = Simulated.renaming mem ~k in
  `Assignment
    { Protocol.assignment_name = "renaming-direct";
      acquire = (fun ~pid:_ -> Simulated.rename r);
      try_acquire = (fun ~pid:_ -> Op.map Option.some (Simulated.rename r));
      release = (fun ~pid:_ ~name -> Simulated.unname r ~name) }

let run_renaming ?(iterations = 5) ?(cs_delay = 3) ?scheduler ~k ~c () =
  run ?scheduler ~iterations ~cs_delay ~participants:(participants c) ~model:cc ~n:c ~k
    (renaming_workload ~k)

let test_unique_names_at_full_k () =
  List.iter
    (fun k ->
      List.iter
        (fun scheduler ->
          let res = run_renaming ~scheduler ~k ~c:k () in
          assert_ok ~ctx:(Printf.sprintf "k=%d %s" k (Scheduler.name scheduler)) res)
        (fresh_schedulers ()))
    [ 1; 2; 3; 5; 8 ]

let test_name_space_exactly_k () =
  (* All k names get used when k processes hold names concurrently: the
     monitor enforces uniqueness and range, so k concurrent holders implies
     names 0..k-1 are all taken. *)
  let k = 4 in
  let res = run_renaming ~cs_delay:8 ~k ~c:k () in
  assert_ok res;
  Alcotest.(check int) "k concurrent holders" k res.Runner.max_in_cs

let test_long_lived_reuse () =
  (* A solo process must get name 0 every time: names are genuinely released
     and reacquired (long-livedness, the paper's novelty over one-shot
     renaming). *)
  let mem = Memory.create () in
  let r = Simulated.renaming mem ~k:3 in
  let names = ref [] in
  let wl =
    { Runner.acquire =
        (fun ~pid:_ ->
          Op.map
            (fun name ->
              names := name :: !names;
              name)
            (Simulated.rename r));
      release = (fun ~pid:_ ~name -> Simulated.unname r ~name);
      check_names = true; cs_body = None }
  in
  let cost = Cost_model.create cc ~n_procs:1 in
  let cfg = Runner.config ~n:1 ~k:3 ~iterations:6 () in
  let res = Runner.run cfg mem cost wl in
  assert_ok res;
  Alcotest.(check (list int)) "always name 0" [ 0; 0; 0; 0; 0; 0 ] !names

let test_cost_at_most_k () =
  (* At most k-1 test-and-sets plus one clear: <= k remote references added
     per acquisition (Theorems 9/10's increment). *)
  List.iter
    (fun k ->
      let res = run_renaming ~cs_delay:2 ~k ~c:k () in
      assert_ok res;
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: %d <= %d" k (max_remote res) k)
        true
        (max_remote res <= k))
    [ 2; 3; 6 ]

let test_last_name_needs_no_bit () =
  (* With k concurrent processes under a scheduler that lets each complete
     its scan, some process falls through to name k-1 without a successful
     test-and-set; the monitor confirms it is valid and unique. *)
  let res = run_renaming ~scheduler:(Scheduler.round_robin ()) ~cs_delay:10 ~k:3 ~c:3 () in
  assert_ok res;
  Alcotest.(check int) "three concurrent names" 3 res.Runner.max_in_cs

let test_crash_holding_name () =
  (* A crashed holder permanently consumes one name; the remaining k-1 names
     keep circulating.  (In the composed algorithm the enclosing k-exclusion
     also loses one slot, keeping the invariant aligned.) *)
  let k = 3 in
  let mem = Memory.create () in
  let wl = match renaming_workload ~k mem with `Assignment p -> Protocol.named_workload p | _ -> assert false in
  let cost = Cost_model.create cc ~n_procs:2 in
  let cfg =
    Runner.config ~n:2 ~k ~iterations:4 ~cs_delay:2
      ~failures:[ (0, Kex_sim.Failures.In_cs 1) ]
      ()
  in
  let res = Runner.run cfg mem cost wl in
  Alcotest.(check (list string)) "no violations" [] res.Runner.violations;
  Alcotest.(check bool) "pid 1 completes" true res.procs.(1).completed

let suite =
  [ tc "unique names across schedulers and k" test_unique_names_at_full_k;
    tc "name space is exactly k" test_name_space_exactly_k;
    tc "names are long-lived (released and reused)" test_long_lived_reuse;
    tc "renaming adds at most k remote refs" test_cost_at_most_k;
    tc "name k-1 works without a bit" test_last_name_needs_no_bit;
    tc "crash while holding a name" test_crash_holding_name ]
