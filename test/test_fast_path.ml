(* Theorems 3 and 7: the fast-path construction (Figure 4). *)

open Kexclusion
open Kexclusion.Import
open Helpers

let fp ~model ~n ~k mem =
  `Exclusion (Simulated.fast_path_tree mem ~block:(Registry.block_for model) ~n ~k)

let batteries =
  [ (cc, 8, 2); (dsm, 8, 2); (cc, 12, 3); (dsm, 9, 4) ]
  |> List.concat_map (fun (model, n, k) ->
         let mname = if model = cc then "CC" else "DSM" in
         [ tc
             (Printf.sprintf "%s (%d,%d): safety+progress" mname n k)
             (exclusion_battery ~model ~n ~k (fp ~model ~n ~k));
           tc
             (Printf.sprintf "%s (%d,%d): k-way concurrency" mname n k)
             (utilisation_battery ~model ~n ~k (fp ~model ~n ~k)) ])

(* Theorem 3/7 low-contention regime: when at most k processes participate,
   the slow path is never taken and the cost is the gate plus one (2k,k)
   block. *)
let test_low_contention model bound () =
  List.iter
    (fun (n, k) ->
      List.iter
        (fun c ->
          let res =
            run ~iterations:5 ~participants:(participants c) ~model ~n ~k (fp ~model ~n ~k)
          in
          assert_ok res;
          let b = bound ~k in
          Alcotest.(check bool)
            (Printf.sprintf "(%d,%d) c=%d: %d <= %d" n k c (max_remote res) b)
            true
            (max_remote res <= b))
        [ 1; k ])
    [ (8, 2); (16, 2); (32, 4); (12, 3) ]

let test_high_contention model bound () =
  List.iter
    (fun (n, k) ->
      let res = run ~iterations:4 ~model ~n ~k (fp ~model ~n ~k) in
      assert_ok res;
      let b = bound ~n ~k in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d) full contention: %d <= %d" n k (max_remote res) b)
        true
        (max_remote res <= b))
    [ (8, 2); (16, 2); (16, 4) ]

let test_fast_slots_recover () =
  (* After a burst of full contention drains, the gate must be back to k free
     slots: a subsequent solo run pays the low-contention price again. *)
  let model = cc and n = 8 and k = 2 in
  let mem = Memory.create () in
  let p = Simulated.fast_path_tree mem ~block:(Registry.block_for model) ~n ~k in
  let cost = Cost_model.create model ~n_procs:n in
  let storm = Runner.config ~n ~k ~iterations:4 ~cs_delay:2 () in
  let res = Runner.run storm mem cost (Protocol.workload p) in
  assert_ok ~ctx:"storm" res;
  let solo = Runner.config ~n ~k ~iterations:4 ~cs_delay:2 ~participants:[ 5 ] () in
  let res = Runner.run solo mem cost (Protocol.workload p) in
  assert_ok ~ctx:"solo after storm" res;
  Alcotest.(check bool)
    (Printf.sprintf "fast path restored (%d <= %d)" (max_remote res) (Spec.thm3_low ~k))
    true
    (max_remote res <= Spec.thm3_low ~k)

let test_resilience () =
  resilience_battery ~model:cc ~n:8 ~k:2
    ~failures:[ (1, Kex_sim.Failures.In_cs 1) ]
    (fp ~model:cc ~n:8 ~k:2) ();
  resilience_battery ~model:dsm ~n:8 ~k:3
    ~failures:
      [ (0, Kex_sim.Failures.In_cs 2);
        (4, Kex_sim.Failures.In_entry { acquisition = 1; after_steps = 1 }) ]
    (fp ~model:dsm ~n:8 ~k:3) ()

let test_saturation () = saturation_battery ~model:cc ~n:6 ~k:2 (fp ~model:cc ~n:6 ~k:2) ()

(* The no-wait entry ([try_entry]) of the shared Figures code, driven one
   step at a time through [Runner.exec_step] as [Test_op.interp] does.  The
   runner never calls it, so these are its only simulator cases. *)

(* Run [prog] for at most [budget] steps: [Ok v] when it returns, [Error]
   with the continuation when it is still busy-waiting. *)
let drive ?(budget = 1_000) mem prog =
  let rec go n = function
    | Op.Return v -> Ok v
    | _ as p when n = 0 -> Error p
    | Op.Step (s, k) -> go (n - 1) (k (Runner.exec_step mem s))
    | Op.Mark (_, k) -> go n (k ())
  in
  go budget prog

let finish mem prog =
  match drive mem prog with Ok v -> v | Error _ -> Alcotest.fail "program still waiting"

(* Every slot counter in the heap, by address. *)
let slot_counters mem =
  List.filter_map
    (fun a ->
      match Memory.label mem a with
      | Some ("fig2.X" | "fig5.X" | "fig6.X" | "fig4.X") -> Some (a, Memory.get mem a)
      | _ -> None)
    (List.init (Memory.size mem) Fun.id)

let counters = Alcotest.(list (pair int int))

(* k = 2 holders inside: a third pid is refused and leaves every slot
   counter as it found it; after one holder leaves, the try is admitted and
   its exit restores the counters too. *)
let try_refuses_then_admits build ~n ~tryer () =
  let mem = Memory.create () in
  let p : Protocol.t = build mem ~n ~k:2 in
  finish mem (p.entry ~pid:0);
  finish mem (p.entry ~pid:1);
  let full = slot_counters mem in
  Alcotest.(check bool) "refused while k are inside" false (finish mem (p.try_entry ~pid:tryer));
  Alcotest.check counters "slot counters after the refusal" full (slot_counters mem);
  finish mem (p.exit ~pid:0);
  let one_inside = slot_counters mem in
  Alcotest.(check bool) "admitted once a slot is free" true (finish mem (p.try_entry ~pid:tryer));
  finish mem (p.exit ~pid:tryer);
  Alcotest.check counters "slot counters after try + exit" one_inside (slot_counters mem)

let inductive_shape block mem ~n ~k = Simulated.inductive mem ~block ~n ~k
let tree_shape block mem ~n ~k = Simulated.tree mem ~block ~n ~k
let kexd_shape block mem ~n ~k = Simulated.fast_path_tree mem ~block ~n ~k

(* The final stage refuses while the gate admits: pid 0 holds a gate slot,
   pid 2 came through the slow path (it waited in the final block until
   pid 1 left), so the gate has a slot but the final block is full.  The
   refused try gives the gate slot back. *)
let try_final_stage_refusal block () =
  let mem = Memory.create () in
  let p = Simulated.fast_path_tree mem ~block ~n:6 ~k:2 in
  finish mem (p.entry ~pid:0);
  finish mem (p.entry ~pid:1);
  let waiting =
    match drive mem (p.entry ~pid:2) with
    | Error rest -> rest
    | Ok () -> Alcotest.fail "pid 2 entered past two holders"
  in
  finish mem (p.exit ~pid:1);
  finish mem waiting;
  let full = slot_counters mem in
  let gate = List.filter (fun (a, _) -> Memory.label mem a = Some "fig4.X") full in
  Alcotest.(check (list int)) "the gate has a slot" [ 1 ] (List.map snd gate);
  Alcotest.(check bool) "refused by the final stage" false (finish mem (p.try_entry ~pid:3));
  Alcotest.check counters "gate slot given back, counters unchanged" full (slot_counters mem)

let try_cases =
  List.concat_map
    (fun (bname, block) ->
      [ tc
          (Printf.sprintf "%s try: inductive (3,2) refusal runs the block's exit" bname)
          (try_refuses_then_admits (inductive_shape block) ~n:3 ~tryer:2);
        (* pid 4's leaf admits it, the full root refuses: the leaf is
           unwound. *)
        tc
          (Printf.sprintf "%s try: tree (6,2) root refusal unwinds the leaf" bname)
          (try_refuses_then_admits (tree_shape block) ~n:6 ~tryer:4);
        tc
          (Printf.sprintf "%s try: fastpath-tree (6,2) gate refuses" bname)
          (try_refuses_then_admits (kexd_shape block) ~n:6 ~tryer:5);
        tc
          (Printf.sprintf "%s try: fastpath-tree (6,2) final stage refuses" bname)
          (try_final_stage_refusal block) ])
    [ ("fig2", Simulated.fig2); ("fig5", Dsm_unbounded.create); ("fig6", Simulated.fig6) ]

let suite =
  batteries
  @ [ tc "thm 3 low-contention cost (CC)" (test_low_contention cc (fun ~k -> Spec.thm3_low ~k));
      tc "thm 7 low-contention cost (DSM)" (test_low_contention dsm (fun ~k -> Spec.thm7_low ~k));
      tc "thm 3 high-contention cost (CC)"
        (test_high_contention cc (fun ~n ~k -> Spec.thm3_high ~n ~k));
      tc "thm 7 high-contention cost (DSM)"
        (test_high_contention dsm (fun ~n ~k -> Spec.thm7_high ~n ~k));
      tc "fast slots recover after contention storm" test_fast_slots_recover;
      tc "CC churn (rising and falling contention)"
        (churn_battery ~model:cc ~n:8 ~k:2 (fp ~model:cc ~n:8 ~k:2));
      tc "DSM churn" (churn_battery ~model:dsm ~n:8 ~k:2 (fp ~model:dsm ~n:8 ~k:2));
      tc "tolerates k-1 failures" test_resilience;
      tc "k failures exhaust slots" test_saturation ]
  @ try_cases
