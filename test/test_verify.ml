(* Model checking: exhaustive verification of the shipped Figures 2, 4, 6
   and 7 and the MCS lock at small N (crash transitions included), of the
   hand models of Figures 4 and 5, and mutant killing — the checker must
   reject broken variants, which is the evidence that a "no violation"
   verdict means something.  Figures 2, 6 and 7, MCS and their mutants run
   the text of lib/kexclusion/figures.ml (the mutants are patches of it)
   through [Shipped]. *)

open Kex_verify
module S = Shipped.Figures
module Mutant = Kex_figure_mutants
module Broken_gate = Shipped.Make (Mutant.Fig2_broken_gate.Make (Traced))
module No_release_write = Shipped.Make (Mutant.Fig2_no_release_write.Make (Traced))
module Abort_no_release = Shipped.Make (Mutant.Abort_no_release.Make (Traced))
module Abort_keeps_x = Shipped.Make (Mutant.Abort_keeps_x.Make (Traced))
module Skip_init = Shipped.Make (Mutant.Fig6_skip_init.Make (Traced))
module No_feedback = Shipped.Make (Mutant.Fig6_no_feedback.Make (Traced))
module No_recheck = Shipped.Make (Mutant.Fig6_no_recheck.Make (Traced))
module Fewer_slots = Shipped.Make (Mutant.Fig6_fewer_slots.Make (Traced))
module No_clear = Shipped.Make (Mutant.Fig7_no_clear.Make (Traced))
module Mcs_no_cas = Shipped.Make (Mutant.Mcs_no_cas.Make (Traced))

let no_violation ?max_states name m () =
  let r = Explore.check m ?max_states () in
  Alcotest.(check bool) (name ^ " explored completely") true r.Explore.complete;
  (match r.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s: unexpected violation of %s (trace length %d)" name v.property
        (List.length v.trace));
  Alcotest.(check bool) (name ^ " nonempty space") true (r.states > 0)

let violated name m expected () =
  let r = Explore.check m () in
  match r.Explore.violation with
  | None -> Alcotest.failf "%s: expected a violation of %s, found none" name expected
  | Some v ->
      Alcotest.(check string) (name ^ " property") expected v.property;
      Alcotest.(check bool) (name ^ " trace provided") true (List.length v.trace > 1)

(* Multi-pid possible-progress over one graph construction. *)
let check_progress_all ~name m ~pids ~waiting ~goal =
  let cases = List.map (fun pid -> ((fun s -> waiting s pid), fun s -> goal s pid)) pids in
  List.iteri
    (fun i outcome ->
      match outcome with
      | None -> ()
      | Some _ -> Alcotest.failf "%s: process %d can be locked out" name (List.nth pids i))
    (Explore.possible_progress_many m ~cases ())

let expect_lockout ~name m ~pids ~waiting ~goal =
  let cases = List.map (fun pid -> ((fun s -> waiting s pid), fun s -> goal s pid)) pids in
  let stuck = List.exists Option.is_some (Explore.possible_progress_many m ~cases ()) in
  Alcotest.(check bool) (name ^ " can lock out a process") true stuck

(* ------------------------------- Figure 2 ------------------------------- *)

let fig2_exhaustive =
  [ (2, 0); (2, 1); (3, 0); (3, 2) ]
  |> List.map (fun (n, crashes) ->
         let name = Printf.sprintf "fig2 n=%d crashes<=%d" n crashes in
         Helpers.tc (name ^ ": all invariants hold")
           (no_violation name (S.fig2 ~n ~max_crashes:crashes)))

let fig2_larger =
  Helpers.tc_slow "fig2 n=4 crashes<=3: all invariants hold"
    (no_violation "fig2 n=4" (S.fig2 ~n:4 ~max_crashes:3))

let test_fig2_progress () =
  check_progress_all ~name:"fig2" (S.fig2 ~n:3 ~max_crashes:1) ~pids:[ 0; 1; 2 ]
    ~waiting:Shipped.acquiring ~goal:Shipped.holding

let test_fig2_broken_gate () =
  violated "fig2 broken-gate" (Broken_gate.fig2 ~n:3 ~max_crashes:0) "k-exclusion" ()

let test_fig2_no_release () =
  (* Without statement 7 the released slot is invisible to the parked waiter
     once everyone else stays in (or retires to) the noncritical section. *)
  expect_lockout ~name:"fig2 no-release" (No_release_write.fig2 ~n:3 ~max_crashes:0) ~pids:[ 0 ]
    ~waiting:Shipped.acquiring ~goal:Shipped.holding

(* ------------------------------- Figure 6 ------------------------------- *)

let fig6_exhaustive =
  [ (2, 0); (2, 1) ]
  |> List.map (fun (n, crashes) ->
         let name = Printf.sprintf "fig6 n=%d crashes<=%d" n crashes in
         Helpers.tc (name ^ ": all invariants hold")
           (no_violation name (S.fig6 ~n ~max_crashes:crashes)))

let test_fig6_progress () =
  check_progress_all ~name:"fig6" (S.fig6 ~n:2 ~max_crashes:0) ~pids:[ 0; 1 ]
    ~waiting:Shipped.acquiring ~goal:Shipped.holding

let test_fig6_skip_init () =
  violated "fig6 skip-init" (Skip_init.fig6 ~n:2 ~max_crashes:1) "k-exclusion" ()

let stuck_variant name fig6 () =
  expect_lockout ~name (fig6 ~n:2 ~max_crashes:1) ~pids:[ 0; 1 ] ~waiting:Shipped.acquiring
    ~goal:Shipped.holding

(* ------------------------------- Figure 5 ------------------------------- *)

let fig5_exhaustive =
  [ (2, 2, 1); (3, 2, 0); (3, 1, 2) ]
  |> List.map (fun (n, rounds, crashes) ->
         let name = Printf.sprintf "fig5 n=%d rounds=%d crashes<=%d" n rounds crashes in
         Helpers.tc (name ^ ": all invariants hold")
           (no_violation name (Fig5_model.model ~n ~rounds ~max_crashes:crashes ())))

let test_fig5_progress () =
  check_progress_all ~name:"fig5"
    (Fig5_model.model ~n:3 ~rounds:2 ~max_crashes:1 ())
    ~pids:[ 0; 1; 2 ] ~waiting:Fig5_model.live_entering ~goal:Fig5_model.in_cs

let test_fig5_no_cas () =
  (* Section 3.2's motivation for the compare-and-swap: without it, two
     releasers can both install themselves as waiters and, with the other
     k-1 processes crashed, wait forever. *)
  expect_lockout ~name:"fig5 no-cas"
    (Fig5_model.model ~variant:Fig5_model.No_cas ~n:3 ~rounds:2 ~max_crashes:1 ())
    ~pids:[ 0; 1; 2 ] ~waiting:Fig5_model.live_entering ~goal:Fig5_model.in_cs

(* ------------------------------- Figure 4 ------------------------------- *)

let fig4_exhaustive =
  [ (3, 1, 0); (4, 1, 0); (3, 1, 1); (3, 2, 1) ]
  |> List.map (fun (n, k, crashes) ->
         let name = Printf.sprintf "fig4 n=%d k=%d crashes<=%d" n k crashes in
         Helpers.tc (name ^ ": composition invariants hold")
           (no_violation name (Fig4_model.model ~n ~k ~max_crashes:crashes ())))

let test_fig4_progress () =
  check_progress_all ~name:"fig4"
    (Fig4_model.model ~n:3 ~k:2 ~max_crashes:1 ())
    ~pids:[ 0; 1; 2 ] ~waiting:Fig4_model.live_entering ~goal:Fig4_model.in_cs

let test_fig4_leaky_gate () =
  (* Footnote 2 matters: with a plain (underflowing) fetch-and-increment in
     the gate, processes that read a negative value take the fast path and
     overload the final block (and, downstream, k-exclusion itself). *)
  let r =
    Explore.check (Fig4_model.model ~variant:Fig4_model.Leaky_gate ~n:3 ~k:1 ~max_crashes:0 ()) ()
  in
  match r.Explore.violation with
  | Some v ->
      Alcotest.(check bool) "meaningful property" true
        (v.property = "k-exclusion" || v.property = "final block admission <= 2k")
  | None -> Alcotest.fail "leaky-gate mutant not caught"

let test_fig4_no_slow_path () =
  (* Gate losers must go through the (N-k,k)-exclusion slow path; walking
     straight into the final block breaks its 2k admission precondition. *)
  let r =
    Explore.check (Fig4_model.model ~variant:Fig4_model.No_slow_path ~n:4 ~k:1 ~max_crashes:0 ()) ()
  in
  match r.Explore.violation with
  | Some v ->
      Alcotest.(check bool) "meaningful property" true
        (v.property = "k-exclusion" || v.property = "final block admission <= 2k")
  | None -> Alcotest.fail "no-slow-path mutant not caught"

(* ------------------------------- Figure 7 ------------------------------- *)

let fig7_case (procs, k, crashes) =
  let name = Printf.sprintf "fig7 procs=%d k=%d crashes<=%d" procs k crashes in
  Helpers.tc (name ^ ": names unique and in range")
    (no_violation name (S.renaming ~procs ~k ~max_crashes:crashes))

let fig7_exhaustive = List.map fig7_case [ (1, 1, 0); (2, 2, 1); (3, 3, 2) ]

let fig7_larger =
  Helpers.tc_slow "fig7 procs=4 k=4 crashes<=3"
    (no_violation "fig7 k=4" (S.renaming ~procs:4 ~k:4 ~max_crashes:3))

let test_fig7_progress () =
  check_progress_all ~name:"fig7" (S.renaming ~procs:3 ~k:3 ~max_crashes:2) ~pids:[ 0; 1; 2 ]
    ~waiting:Shipped.acquiring ~goal:Shipped.holding

let test_fig7_needs_exclusion () =
  (* Running k+1 concurrent processes against a k-name space — exactly what
     happens without the k-exclusion wrapper — must produce a collision.
     This is the executable justification for the paper's composition. *)
  violated "fig7 precondition broken"
    (S.renaming ~procs:3 ~k:2 ~max_crashes:0)
    "names unique and in range" ()

let test_fig7_no_clear () =
  violated "fig7 no-clear"
    (No_clear.renaming ~procs:3 ~k:3 ~max_crashes:0)
    "names unique and in range" ()

(* ------------------------- Long-lived splitters -------------------------- *)

let test_one_shot_splitter_model_clean () =
  no_violation "one-shot splitter grid"
    (Ll_splitter_model.model ~reset_on_release:false ~procs:2 ~k:2 ~max_crashes:1 ())
    ();
  no_violation "one-shot splitter grid k=3"
    (Ll_splitter_model.model ~reset_on_release:false ~procs:3 ~k:3 ~max_crashes:2 ())
    ()

let test_naive_long_lived_splitter_unsound () =
  (* A negative result the checker establishes: making the splitter grid
     long-lived by merely resetting Y on release is unsound — a process
     delayed inside a splitter from a previous epoch can overwrite X after
     the reset, driving a re-entering process off the grid (stop guarantee
     broken) with only 2 processes and no crashes.  This is why the
     companion paper's long-lived renaming needs more machinery, and why
     this library's long-lived renaming is Figure 7 (test-and-set) while the
     splitter grid stays one-shot. *)
  let r =
    Explore.check (Ll_splitter_model.model ~reset_on_release:true ~procs:2 ~k:2 ~max_crashes:0 ()) ()
  in
  match r.Explore.violation with
  | Some v -> Alcotest.(check string) "stop guarantee broken" "nobody walks off the grid" v.property
  | None -> Alcotest.fail "expected the naive reset to be unsound"

(* ------------------------------- Explore -------------------------------- *)

(* A tiny hand-rolled model to pin down the explorer's own behaviour. *)
let counter_model ~modulus ~bad : (module System.MODEL with type state = int) =
  (module struct
    type state = int

    let name = "counter"
    let initial = [ 0 ]
    let next s = [ (lazy "inc", (s + 1) mod modulus) ]
    let encode = string_of_int
    let pp = Format.pp_print_int
    let invariants = [ ("not bad", fun s -> s <> bad) ]
  end)

let test_explore_counts_states () =
  let r = Explore.check (counter_model ~modulus:7 ~bad:(-1)) () in
  Alcotest.(check int) "seven states" 7 r.Explore.states;
  Alcotest.(check bool) "complete" true r.complete;
  Alcotest.(check bool) "no violation" true (r.violation = None)

let test_explore_finds_violation_with_trace () =
  let r = Explore.check (counter_model ~modulus:7 ~bad:4) () in
  match r.Explore.violation with
  | None -> Alcotest.fail "violation missed"
  | Some v ->
      Alcotest.(check string) "property" "not bad" v.property;
      (* init state 0 plus four increments *)
      Alcotest.(check int) "trace length" 5 (List.length v.trace);
      Alcotest.(check int) "ends at bad state" 4 (snd (List.nth v.trace 4))

let test_explore_cap () =
  let r = Explore.check (counter_model ~modulus:1000 ~bad:(-1)) ~max_states:10 () in
  Alcotest.(check bool) "incomplete" false r.Explore.complete;
  Alcotest.(check int) "capped" 10 r.states

let test_hunt_finds_shallow_violation () =
  match
    Explore.hunt (Broken_gate.fig2 ~n:3 ~max_crashes:0) ~seeds:(List.init 50 Fun.id) ~steps:500 ()
  with
  | Some v -> Alcotest.(check string) "property" "k-exclusion" v.Explore.property
  | None -> Alcotest.fail "hunt missed the broken gate"

let test_hunt_clean_on_faithful () =
  match
    Explore.hunt (S.fig2 ~n:3 ~max_crashes:2) ~seeds:(List.init 30 Fun.id) ~steps:500 ()
  with
  | None -> ()
  | Some v -> Alcotest.failf "hunt reported %s on the faithful model" v.Explore.property

(* ------------------------------ No-wait entry ---------------------------- *)

(* Every process may enter through the no-wait entry (a block whose
   fetch-and-add returned 0 runs its exit instead of waiting; Figure 4's
   gate refuses at 0), so the checks above cover it.  Each abort mutant
   must be caught by exactly its check: restoring only X strands a waiter
   while a slot is free — it passes every invariant but the progress check
   finds the lockout — and skipping the exit leaves a unit unreturned.
   For Figures 2 and 6 both mutants are patches of the shared [no_wait]. *)
let abort_mutants ~name ~no_release ~keeps_x ~count_invariant ~lockout () =
  no_violation (name ^ " abort-no-release (invariants)") no_release ();
  lockout ();
  violated (name ^ " abort-keeps-x") keeps_x count_invariant ()

let test_fig2_abort_mutants =
  let no_release = Abort_no_release.fig2 ~n:3 ~max_crashes:1 in
  abort_mutants ~name:"fig2" ~no_release ~keeps_x:(Abort_keeps_x.fig2 ~n:3 ~max_crashes:1)
    ~count_invariant:"units returned"
    ~lockout:(fun () ->
      expect_lockout ~name:"fig2 abort-no-release" no_release ~pids:[ 0; 1; 2 ]
        ~waiting:Shipped.acquiring ~goal:Shipped.holding)

let test_fig4_abort_mutants =
  let model variant = Fig4_model.model ~variant ~n:3 ~k:2 ~max_crashes:1 () in
  abort_mutants ~name:"fig4" ~no_release:(model Fig4_model.Abort_no_release)
    ~keeps_x:(model Fig4_model.Abort_keeps_x) ~count_invariant:"layer X = cap - |holders|"
    ~lockout:(fun () ->
      expect_lockout ~name:"fig4 abort-no-release" (model Fig4_model.Abort_no_release)
        ~pids:[ 0; 1; 2 ] ~waiting:Fig4_model.live_entering ~goal:Fig4_model.in_cs)

(* Figure 6 at n = 3 passes 2M states, so it is checked at n = 2 (k = 1,
   no crash budget), as its other progress check is; there the stranded
   waiter needs no crash, only the aborter's retirement. *)
let test_fig6_abort_mutants =
  let no_release = Abort_no_release.fig6 ~n:2 ~max_crashes:0 in
  abort_mutants ~name:"fig6" ~no_release ~keeps_x:(Abort_keeps_x.fig6 ~n:2 ~max_crashes:0)
    ~count_invariant:"units returned"
    ~lockout:(fun () ->
      expect_lockout ~name:"fig6 abort-no-release" no_release ~pids:[ 0; 1 ]
        ~waiting:Shipped.acquiring ~goal:Shipped.holding)

(* Figure 4 as shipped: the fast path over Figure 2 blocks with a tree as
   its slow path, the composition [Kex_lock] admits through by default.
   The hand model above checks more (one crash at k = 2, through its
   abstract slow path); this one checks the text kexd runs, at the size
   it can: N = 3, k = 1, every process free to use either entry. *)
let test_fig4_shipped () =
  let m = S.fast_path_tree ~n:3 ~k:1 ~max_crashes:0 in
  no_violation "fastpath-tree" m ();
  check_progress_all ~name:"fastpath-tree" m ~pids:[ 0; 1; 2 ] ~waiting:Shipped.acquiring
    ~goal:Shipped.holding

(* --------------------------------- MCS ---------------------------------- *)

(* The MCS lock A1 measures, as shipped.  With no crash it keeps mutual
   exclusion and every waiting process can get in; one crash in the queue
   locks out the processes behind it, the trade the paper's algorithms
   avoid. *)
let mcs_exhaustive =
  [ 3; 4 ]
  |> List.map (fun n ->
         let name = Printf.sprintf "mcs n=%d crashes<=0" n in
         Helpers.tc (name ^ ": mutual exclusion, no lockout") (fun () ->
             let m = S.mcs ~n ~max_crashes:0 in
             no_violation name m ();
             check_progress_all ~name m ~pids:(List.init n Fun.id) ~waiting:Shipped.acquiring
               ~goal:Shipped.holding))

let test_mcs_crash_locks_out () =
  let name = "mcs n=3 crashes<=1" in
  let m = S.mcs ~n:3 ~max_crashes:1 in
  no_violation name m ();
  expect_lockout ~name m ~pids:[ 0; 1; 2 ] ~waiting:Shipped.acquiring ~goal:Shipped.holding

(* Releasing with [tail := 0] in place of the CAS cuts off a successor
   that has swapped itself in but not yet linked: mutual exclusion holds,
   and only the progress check catches it. *)
let test_mcs_no_cas () =
  List.iter
    (fun n ->
      let name = Printf.sprintf "mcs no-cas n=%d" n in
      let m = Mcs_no_cas.mcs ~n ~max_crashes:0 in
      no_violation (name ^ " (invariants)") m ();
      expect_lockout ~name m ~pids:(List.init n Fun.id) ~waiting:Shipped.acquiring
        ~goal:Shipped.holding)
    [ 2; 3 ]

let suite =
  fig2_exhaustive
  @ [ fig2_larger;
      Helpers.tc "fig2: no lockout with k-1 crashes" test_fig2_progress;
      Helpers.tc "fig2 mutant: broken gate violates k-exclusion" test_fig2_broken_gate;
      Helpers.tc "fig2 mutant: missing release blocks a waiter" test_fig2_no_release ]
  @ fig6_exhaustive
  @ [ Helpers.tc "fig6: no lockout" test_fig6_progress;
      Helpers.tc "fig6 mutant: skipped init violates k-exclusion" test_fig6_skip_init;
      Helpers.tc "fig6 mutant: no R feedback locks out"
        (stuck_variant "no-feedback" No_feedback.fig6);
      Helpers.tc "fig6 mutant: no Q re-check locks out"
        (stuck_variant "no-recheck" No_recheck.fig6);
      Helpers.tc "fig6 ablation: k+1 spin locations are too few"
        (stuck_variant "fewer-slots" Fewer_slots.fig6) ]
  @ fig5_exhaustive
  @ [ Helpers.tc "fig5: no lockout with k-1 crashes" test_fig5_progress;
      Helpers.tc "fig5 mutant: the CAS at statement 7 is necessary" test_fig5_no_cas ]
  @ fig4_exhaustive
  @ [ Helpers.tc "fig4: no lockout with k-1 crashes" test_fig4_progress;
      Helpers.tc "fig4 mutant: plain faa gate breaks k-exclusion (footnote 2)"
        test_fig4_leaky_gate;
      Helpers.tc "fig4 mutant: skipping the slow path overloads the final block"
        test_fig4_no_slow_path ]
  @ fig7_exhaustive
  @ [ fig7_larger;
      Helpers.tc "fig7: every scan can obtain a name" test_fig7_progress;
      Helpers.tc "fig7: k-exclusion wrapper is necessary" test_fig7_needs_exclusion;
      Helpers.tc "fig7 mutant: unreleased bits collide" test_fig7_no_clear;
      Helpers.tc "one-shot splitter grid verified" test_one_shot_splitter_model_clean;
      Helpers.tc "naive long-lived splitter is unsound (negative result)"
        test_naive_long_lived_splitter_unsound;
      Helpers.tc "explore: exact state count" test_explore_counts_states;
      Helpers.tc "explore: violation trace" test_explore_finds_violation_with_trace;
      Helpers.tc "explore: max_states cap" test_explore_cap;
      Helpers.tc "hunt: finds shallow violations" test_hunt_finds_shallow_violation;
      Helpers.tc "hunt: clean on the faithful model" test_hunt_clean_on_faithful;
      Helpers.tc "fig2 abort mutants: no release locks out, kept X breaks I2"
        test_fig2_abort_mutants;
      Helpers.tc "fig4 abort mutants: no release locks out, kept X breaks the layer count"
        test_fig4_abort_mutants;
      Helpers.tc "fig6 abort mutants: no release locks out, kept X breaks the X count"
        test_fig6_abort_mutants;
      Helpers.tc "fig4 as shipped: fast path over Figure 2 blocks, n=3 k=1, both entries"
        test_fig4_shipped;
      (* Fewer processes than names. *)
      fig7_case (2, 3, 0) ]
  @ mcs_exhaustive
  @ [ Helpers.tc "mcs: one crash in the queue locks out its successors" test_mcs_crash_locks_out;
      Helpers.tc "mcs mutant: tail := 0 in place of the CAS locks out" test_mcs_no_cas ]
