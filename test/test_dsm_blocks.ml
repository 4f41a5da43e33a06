(* Figures 5 and 6: the DSM building blocks.  Both are exercised standalone
   (N = k+1, trivial inner) and inductively; Figure 5 additionally serves as
   the oracle for Figure 6 (same protocol family, unbounded vs bounded spin
   locations). *)

open Kexclusion
open Kexclusion.Import
open Helpers

let bounded ~n ~k mem = `Exclusion (Simulated.inductive mem ~block:Simulated.fig6 ~n ~k)
let unbounded ~n ~k mem = `Exclusion (Simulated.inductive mem ~block:Dsm_unbounded.create ~n ~k)

let batteries name block =
  [ (2, 1); (3, 2); (5, 4) ]
  |> List.concat_map (fun (n, k) ->
         [ tc
             (Printf.sprintf "%s (%d,%d): safety+progress across schedulers" name n k)
             (exclusion_battery ~model:dsm ~n ~k (block ~n ~k));
           tc
             (Printf.sprintf "%s (%d,%d): achieves k-way concurrency" name n k)
             (utilisation_battery ~model:dsm ~n ~k (block ~n ~k)) ])

let test_local_spin_only name block () =
  (* The defining property of the DSM algorithms: all busy-waiting is on
     local cells, so remote references per acquisition stay bounded even when
     the waiting time is unbounded.  Compare a short CS dwell with a very
     long one: the max remote refs per acquisition must not grow. *)
  let cost dwell =
    let res = run ~iterations:3 ~cs_delay:dwell ~model:dsm ~n:3 ~k:2 (block ~n:3 ~k:2) in
    assert_ok res;
    max_remote res
  in
  let long = cost 120 and longer = cost 600 in
  Alcotest.(check int) (name ^ ": refs independent of wait time") long longer;
  Alcotest.(check bool)
    (Printf.sprintf "%s: bounded by 14 (got %d)" name longer)
    true (longer <= 14)

let test_fourteen_refs_bound () =
  (* Theorem 5 basis: at N = k+1 an acquisition costs at most 14 remote
     references on a DSM machine. *)
  List.iter
    (fun (n, k) ->
      List.iter
        (fun scheduler ->
          let res = run ~iterations:6 ~scheduler ~model:dsm ~n ~k (bounded ~n ~k) in
          assert_ok res;
          Alcotest.(check bool)
            (Printf.sprintf "(%d,%d) max %d <= 14" n k (max_remote res))
            true
            (max_remote res <= 14))
        (fresh_schedulers ()))
    [ (2, 1); (3, 2); (4, 3); (6, 5) ]

let test_bounded_space () =
  (* Figure 6 must not allocate fresh cells per acquisition (that is Figure
     5's flaw).  The per-pid P/R banks are materialised lazily on first use,
     so after one warm-up run in which every process participates, further
     runs must not grow the heap at all. *)
  let mem = Memory.create () in
  let p = Simulated.inductive mem ~block:Simulated.fig6 ~n:3 ~k:2 in
  let cost = Cost_model.create dsm ~n_procs:3 in
  let cfg = Runner.config ~n:3 ~k:2 ~iterations:2 ~cs_delay:3 () in
  let warmup = Runner.run cfg mem cost (Protocol.workload p) in
  assert_ok warmup;
  let before = Memory.size mem in
  let cfg = Runner.config ~n:3 ~k:2 ~iterations:12 ~cs_delay:3 () in
  let res = Runner.run cfg mem cost (Protocol.workload p) in
  assert_ok res;
  Alcotest.(check int) "no growth after warm-up" before (Memory.size mem)

let test_unbounded_grows () =
  (* And Figure 5 does allocate per waiting acquisition — the documented
     reason Figure 6 exists. *)
  let mem = Memory.create () in
  let p = Simulated.inductive mem ~block:Dsm_unbounded.create ~n:3 ~k:2 in
  let before = Memory.size mem in
  let cost = Cost_model.create dsm ~n_procs:3 in
  let cfg = Runner.config ~n:3 ~k:2 ~iterations:12 ~cs_delay:3 () in
  let res = Runner.run cfg mem cost (Protocol.workload p) in
  assert_ok res;
  Alcotest.(check bool) "heap grew" true (Memory.size mem > before)

let test_resilience _name block () =
  resilience_battery ~model:dsm ~n:4 ~k:3
    ~failures:
      [ (0, Kex_sim.Failures.In_cs 1);
        (1, Kex_sim.Failures.In_entry { acquisition = 2; after_steps = 2 }) ]
    (block ~n:4 ~k:3) ()

let test_saturation _name block () = saturation_battery ~model:dsm ~n:4 ~k:2 (block ~n:4 ~k:2) ()

let test_exit_failure_tolerated _name block () =
  resilience_battery ~model:dsm ~n:3 ~k:2
    ~failures:[ (1, Kex_sim.Failures.In_exit { acquisition = 1; after_steps = 1 }) ]
    (block ~n:3 ~k:2) ()

let suite =
  batteries "fig6" bounded
  @ batteries "fig5" unbounded
  @ [ tc "fig6: spinning is local" (test_local_spin_only "fig6" bounded);
      tc "fig5: spinning is local" (test_local_spin_only "fig5" unbounded);
      tc "theorem 5 basis: <= 14 remote refs at n=k+1" test_fourteen_refs_bound;
      tc "fig6 churn (spin-location recycling)"
        (churn_battery ~model:dsm ~n:4 ~k:3 (bounded ~n:4 ~k:3));
      tc "fig5 churn" (churn_battery ~model:dsm ~n:4 ~k:3 (unbounded ~n:4 ~k:3));
      tc "fig6 uses bounded space" test_bounded_space;
      tc "fig5 allocates unboundedly (by design)" test_unbounded_grows;
      tc "fig6 tolerates k-1 failures" (test_resilience "fig6" bounded);
      tc "fig5 tolerates k-1 failures" (test_resilience "fig5" unbounded);
      tc "fig6: k failures exhaust slots" (test_saturation "fig6" bounded);
      tc "fig5: k failures exhaust slots" (test_saturation "fig5" unbounded);
      tc "fig6 tolerates crash in exit section" (test_exit_failure_tolerated "fig6" bounded);
      tc "fig5 tolerates crash in exit section" (test_exit_failure_tolerated "fig5" unbounded) ]
