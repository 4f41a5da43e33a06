(* Theorems 2 and 6: the arbitration tree (Figure 3(a)). *)

open Kexclusion
open Helpers

let tree ~model ~n ~k mem =
  `Exclusion (Simulated.tree mem ~block:(Registry.block_for model) ~n ~k)

let test_levels () =
  let check ~n ~k expected =
    Alcotest.(check int) (Printf.sprintf "levels n=%d k=%d" n k) expected (Simulated.tree_levels ~n ~k)
  in
  check ~n:16 ~k:2 3;
  (* 16 -> 8 -> 4 -> 2: blocks 4,2,1 *)
  check ~n:8 ~k:2 2;
  check ~n:4 ~k:2 1;
  check ~n:2 ~k:2 0;
  check ~n:2 ~k:1 1;
  check ~n:3 ~k:1 2;
  check ~n:64 ~k:4 4;
  (* ceil(64/8)=8 blocks -> 4 -> 2 -> 1 *)
  check ~n:9 ~k:2 3;
  (* ceil(9/4)=3 blocks -> 2 -> 1 *)
  check ~n:5 ~k:8 0

let batteries =
  [ (cc, 8, 2); (cc, 9, 2); (dsm, 8, 2); (cc, 12, 3); (dsm, 6, 1) ]
  |> List.concat_map (fun (model, n, k) ->
         let mname = if model = cc then "CC" else "DSM" in
         [ tc
             (Printf.sprintf "%s (%d,%d): safety+progress" mname n k)
             (exclusion_battery ~model ~n ~k (tree ~model ~n ~k));
           tc
             (Printf.sprintf "%s (%d,%d): k-way concurrency" mname n k)
             (utilisation_battery ~model ~n ~k (tree ~model ~n ~k)) ])

let test_bound model bound () =
  List.iter
    (fun (n, k) ->
      let res = run ~iterations:4 ~model ~n ~k (tree ~model ~n ~k) in
      assert_ok res;
      let b = bound ~n ~k in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d): %d <= %d" n k (max_remote res) b)
        true
        (max_remote res <= b))
    [ (4, 2); (8, 2); (16, 2); (9, 3); (16, 4) ]

let test_log_shape () =
  (* Doubling N adds one tree level: the cost increase from N=8 to N=32
     (two more levels at k=2) must be at most 2 x 7k, far below the linear
     inductive growth of 7(32-8). *)
  let cost n =
    let res = run ~iterations:4 ~model:cc ~n ~k:2 (tree ~model:cc ~n ~k:2) in
    assert_ok res;
    max_remote res
  in
  let c8 = cost 8 and c32 = cost 32 in
  Alcotest.(check bool)
    (Printf.sprintf "logarithmic growth (%d -> %d)" c8 c32)
    true
    (c32 - c8 <= 2 * 7 * 2)

let test_resilience () =
  resilience_battery ~model:cc ~n:8 ~k:2
    ~failures:[ (3, Kex_sim.Failures.In_cs 1) ]
    (tree ~model:cc ~n:8 ~k:2) ();
  resilience_battery ~model:dsm ~n:8 ~k:2
    ~failures:[ (5, Kex_sim.Failures.In_entry { acquisition = 1; after_steps = 2 }) ]
    (tree ~model:dsm ~n:8 ~k:2) ()

let test_saturation () = saturation_battery ~model:cc ~n:8 ~k:2 (tree ~model:cc ~n:8 ~k:2) ()

let test_trivial_when_k_ge_n () =
  let res = run ~iterations:3 ~model:cc ~n:4 ~k:4 (tree ~model:cc ~n:4 ~k:4) in
  assert_ok res;
  Alcotest.(check int) "no remote refs" 0 (max_remote res)

let suite =
  [ tc "level arithmetic" test_levels ]
  @ batteries
  @ [ tc "theorem 2 bound (CC)" (test_bound cc (fun ~n ~k -> Spec.thm2 ~n ~k));
      tc "theorem 6 bound (DSM)" (test_bound dsm (fun ~n ~k -> Spec.thm6 ~n ~k));
      tc_slow "cost grows logarithmically in N" test_log_shape;
      tc "tolerates k-1 failures" test_resilience;
      tc "k failures exhaust slots" test_saturation;
      tc "degenerates to skip when k >= n" test_trivial_when_k_ge_n ]
