(* Theorems 4 and 8: nested fast paths with graceful degradation
   (Figure 3(b)). *)

open Kexclusion
open Helpers

let gr ~model ~n ~k mem = `Exclusion (Simulated.graceful mem ~block:(Registry.block_for model) ~n ~k)

let batteries =
  [ (cc, 8, 2); (dsm, 8, 2); (cc, 13, 3) ]
  |> List.concat_map (fun (model, n, k) ->
         let mname = if model = cc then "CC" else "DSM" in
         [ tc
             (Printf.sprintf "%s (%d,%d): safety+progress" mname n k)
             (exclusion_battery ~model ~n ~k (gr ~model ~n ~k));
           tc
             (Printf.sprintf "%s (%d,%d): k-way concurrency" mname n k)
             (utilisation_battery ~model ~n ~k (gr ~model ~n ~k)) ])

let test_bound_at_contention model bound () =
  let n = 16 and k = 2 in
  List.iter
    (fun c ->
      let res =
        run ~iterations:4 ~participants:(participants c) ~model ~n ~k (gr ~model ~n ~k)
      in
      assert_ok res;
      let b = bound ~k ~c in
      Alcotest.(check bool)
        (Printf.sprintf "c=%d: %d <= %d" c (max_remote res) b)
        true
        (max_remote res <= b))
    [ 1; 2; 4; 8; 16 ]

let test_degradation_is_gradual () =
  (* The defining property versus the plain fast path: cost grows by at most
     one level (7k+2) per extra k of contention, instead of jumping to the
     full tree cost the moment contention exceeds k. *)
  let n = 16 and k = 2 in
  let cost c =
    let res =
      run ~iterations:4 ~participants:(participants c) ~model:cc ~n ~k (gr ~model:cc ~n ~k)
    in
    assert_ok res;
    max_remote res
  in
  let prev = ref (cost 2) in
  List.iter
    (fun c ->
      let x = cost c in
      Alcotest.(check bool)
        (Printf.sprintf "c=%d: step %d -> %d bounded by one level" c !prev x)
        true
        (x - !prev <= ((7 * k) + 2) * 2);
      prev := x)
    [ 4; 6; 8 ]

let test_resilience () =
  resilience_battery ~model:cc ~n:8 ~k:2
    ~failures:[ (7, Kex_sim.Failures.In_cs 1) ]
    (gr ~model:cc ~n:8 ~k:2) ();
  resilience_battery ~model:dsm ~n:8 ~k:2
    ~failures:[ (2, Kex_sim.Failures.In_entry { acquisition = 2; after_steps = 3 }) ]
    (gr ~model:dsm ~n:8 ~k:2) ()

let test_saturation () = saturation_battery ~model:dsm ~n:8 ~k:2 (gr ~model:dsm ~n:8 ~k:2) ()

let suite =
  batteries
  @ [ tc "thm 4 bound per contention level (CC)"
        (test_bound_at_contention cc (fun ~k ~c -> Spec.thm4 ~k ~c));
      tc "thm 8 bound per contention level (DSM)"
        (test_bound_at_contention dsm (fun ~k ~c -> Spec.thm8 ~k ~c));
      tc "degradation is gradual" test_degradation_is_gradual;
      tc "CC churn" (churn_battery ~model:cc ~n:8 ~k:2 (gr ~model:cc ~n:8 ~k:2));
      tc "DSM churn" (churn_battery ~model:dsm ~n:8 ~k:2 (gr ~model:dsm ~n:8 ~k:2));
      tc "tolerates k-1 failures" test_resilience;
      tc "k failures exhaust slots" test_saturation ]
