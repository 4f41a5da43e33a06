(* One section per table/figure of the paper's evaluation (see DESIGN.md's
   experiment index).  Each prints the series the paper reports next to our
   measured values; "bound" columns are the paper's analytic results. *)

open Kexclusion.Import
open Measure
module Registry = Kexclusion.Registry
module Spec = Kexclusion.Spec

let cc = Cost_model.Cache_coherent
let dsm = Cost_model.Distributed

(* ------------------------------- Table 1 -------------------------------- *)

let table1 () =
  let n = 32 and k = 4 in
  section (Printf.sprintf "T1 / Table 1: comparison of k-exclusion algorithms (n=%d, k=%d)" n k);
  row "  %-26s %-28s %-28s %s@." "algorithm (Table 1 row)" "w/o contention (c=1)"
    "with contention (c=n)" "paper: w/ | w/o";
  let entry label ~model algo ~paper_with ~paper_without =
    let solo = refs ~model algo ~n ~k ~c:1 () in
    let full = refs ~model algo ~n ~k ~c:n () in
    row "  %-26s %-28s %-28s %s | %s@." label
      (Format.asprintf "%a" pp_point solo)
      (Format.asprintf "%a" pp_point full)
      paper_with paper_without
  in
  entry "[9,10] queue (Fig 1)" ~model:cc Registry.Queue ~paper_with:"unbounded"
    ~paper_without:"O(1)";
  entry "[1,8] read/write bakery" ~model:cc Registry.Bakery ~paper_with:"unbounded"
    ~paper_without:"O(N)";
  entry "Thm 3: CC fast path" ~model:cc Registry.Fast_path
    ~paper_with:(Printf.sprintf "7k(log N/k +1)+2 = %d" (Spec.thm3_high ~n ~k))
    ~paper_without:(Printf.sprintf "7k+2 = %d" (Spec.thm3_low ~k));
  entry "Thm 7: DSM fast path" ~model:dsm Registry.Fast_path
    ~paper_with:(Printf.sprintf "14k(log N/k +1)+2 = %d" (Spec.thm7_high ~n ~k))
    ~paper_without:(Printf.sprintf "14k+2 = %d" (Spec.thm7_low ~k));
  (* The "unbounded" entries of Table 1 are about growth with waiting time:
     stretch the critical-section dwell and watch the baselines grow while
     the paper's algorithms stay put.  With per-cell charging of atomic
     blocks the CC queue's polling hits its cached copies between queue
     events — its blow-up is contention-driven (see the c=1 vs c=n columns
     above), while on DSM every poll of the unowned queue cells stays remote
     and the dwell growth shows directly. *)
  row "  --- growth with CS dwell time (c=n, dwell 2 vs 60) ---@.";
  let dwell label ~model algo =
    let short = refs ~cs_delay:2 ~model algo ~n ~k ~c:n () in
    let long = refs ~cs_delay:60 ~model algo ~n ~k ~c:n () in
    row "  %-26s dwell=2: max %4d   dwell=60: max %4d   %s@." label short.max long.max
      (if long.max > short.max + 30 then "grows (unbounded)" else "flat (local spin)")
  in
  dwell "[9,10] queue (CC)" ~model:cc Registry.Queue;
  dwell "[9,10] queue (DSM)" ~model:dsm Registry.Queue;
  dwell "[1,8] bakery" ~model:dsm Registry.Bakery;
  dwell "Thm 3: CC fast path" ~model:cc Registry.Fast_path;
  dwell "Thm 7: DSM fast path" ~model:dsm Registry.Fast_path

(* --------------------------- Theorem sweeps ----------------------------- *)

let sweep_n ~title ~model algo ~k ~ns ~bound =
  section title;
  row "  %-8s %-22s %s@." "N" "measured (full contention)" "bound";
  List.iter
    (fun n ->
      let p = refs ~iterations:2 ~model algo ~n ~k ~c:n ~budget:80_000_000 () in
      bound_row ~label:(Printf.sprintf "N=%d" n) ~measured:p ~bound:(bound ~n ~k))
    ns

let sweep_c ~title ~model algo ~n ~k ~cs ~bound =
  section title;
  row "  %-8s %-22s %s@." "c" "measured (contention<=c)" "bound";
  List.iter
    (fun c ->
      let p = refs ~iterations:3 ~model algo ~n ~k ~c ~budget:80_000_000 () in
      bound_row ~label:(Printf.sprintf "c=%d" c) ~measured:p ~bound:(bound ~c))
    cs

let thm1 () =
  sweep_n
    ~title:"E-Thm1: CC inductive, 7(N-k) (linear in N)"
    ~model:cc Registry.Inductive ~k:4
    ~ns:[ 8; 16; 24; 32; 48; 64 ]
    ~bound:(fun ~n ~k -> Spec.thm1 ~n ~k)

let thm2 () =
  sweep_n
    ~title:"E-Thm2: CC tree, 7k*ceil(log2 N/k) (logarithmic in N)"
    ~model:cc Registry.Tree ~k:4
    ~ns:[ 8; 16; 32; 64; 128 ]
    ~bound:(fun ~n ~k -> Spec.thm2 ~n ~k)

let thm3 () =
  let n = 64 and k = 4 in
  sweep_c
    ~title:
      (Printf.sprintf
         "E-Thm3: CC fast path, N=%d k=%d — flat at 7k+2=%d until c>k, then <= %d" n k
         (Spec.thm3_low ~k) (Spec.thm3_high ~n ~k))
    ~model:cc Registry.Fast_path ~n ~k
    ~cs:[ 1; 2; 4; 8; 16; 32; 64 ]
    ~bound:(fun ~c -> if c <= k then Spec.thm3_low ~k else Spec.thm3_high ~n ~k)

let thm4 () =
  let n = 64 and k = 4 in
  sweep_c
    ~title:
      (Printf.sprintf "E-Thm4: CC graceful, N=%d k=%d — ceil(c/k)(7k+2) (linear in c)" n k)
    ~model:cc Registry.Graceful ~n ~k
    ~cs:[ 1; 4; 8; 12; 16; 24; 32 ]
    ~bound:(fun ~c -> Spec.thm4 ~k ~c)

let thm5 () =
  sweep_n
    ~title:"E-Thm5: DSM inductive, 14(N-k) (linear in N)"
    ~model:dsm Registry.Inductive ~k:4
    ~ns:[ 8; 16; 24; 32; 48; 64 ]
    ~bound:(fun ~n ~k -> Spec.thm5 ~n ~k)

let thm6 () =
  sweep_n
    ~title:"E-Thm6: DSM tree, 14k*ceil(log2 N/k) (logarithmic in N)"
    ~model:dsm Registry.Tree ~k:4
    ~ns:[ 8; 16; 32; 64; 128 ]
    ~bound:(fun ~n ~k -> Spec.thm6 ~n ~k)

let thm7 () =
  let n = 64 and k = 4 in
  sweep_c
    ~title:
      (Printf.sprintf
         "E-Thm7: DSM fast path, N=%d k=%d — flat at 14k+2=%d until c>k, then <= %d" n k
         (Spec.thm7_low ~k) (Spec.thm7_high ~n ~k))
    ~model:dsm Registry.Fast_path ~n ~k
    ~cs:[ 1; 2; 4; 8; 16; 32; 64 ]
    ~bound:(fun ~c -> if c <= k then Spec.thm7_low ~k else Spec.thm7_high ~n ~k)

let thm8 () =
  let n = 64 and k = 4 in
  sweep_c
    ~title:
      (Printf.sprintf "E-Thm8: DSM graceful, N=%d k=%d — ceil(c/k)(14k+2) (linear in c)" n k)
    ~model:dsm Registry.Graceful ~n ~k
    ~cs:[ 1; 4; 8; 12; 16; 24; 32 ]
    ~bound:(fun ~c -> Spec.thm8 ~k ~c)

let assignment_thm ~title ~model ~low ~high () =
  let n = 64 and k = 4 in
  section title;
  let p_low = refs_assignment ~model Registry.Fast_path ~n ~k ~c:k () in
  bound_row ~label:(Printf.sprintf "c=k=%d" k) ~measured:p_low ~bound:(low ~k);
  let p_high = refs_assignment ~model Registry.Fast_path ~n ~k ~c:n ~budget:80_000_000 () in
  bound_row ~label:(Printf.sprintf "c=N=%d" n) ~measured:p_high ~bound:(high ~n ~k);
  (* the renaming increment itself *)
  let plain = refs ~model Registry.Fast_path ~n ~k ~c:k () in
  row "  renaming adds <= k refs: plain max %d, assignment max %d (delta %d <= %d)@."
    plain.max p_low.max (p_low.max - plain.max) k

let thm9 =
  assignment_thm
    ~title:"E-Thm9: CC (N,k)-assignment = fast path + Figure 7 renaming (+k refs)"
    ~model:cc
    ~low:(fun ~k -> Spec.thm9_low ~k)
    ~high:(fun ~n ~k -> Spec.thm9_high ~n ~k)

let thm10 =
  assignment_thm
    ~title:"E-Thm10: DSM (N,k)-assignment = fast path + Figure 7 renaming (+k refs)"
    ~model:dsm
    ~low:(fun ~k -> Spec.thm10_low ~k)
    ~high:(fun ~n ~k -> Spec.thm10_high ~n ~k)

(* ------------------------------ Figure 3 -------------------------------- *)

let fig3 () =
  let n = 64 and k = 4 in
  section
    (Printf.sprintf
       "F3 / Figure 3: tree (a) vs fast path (b) vs nested fast paths, CC, N=%d k=%d" n k);
  row "  %-6s %12s %12s %12s@." "c" "tree" "fastpath" "graceful";
  List.iter
    (fun c ->
      let m algo = (refs ~model:cc algo ~n ~k ~c ~budget:80_000_000 ()).max in
      row "  %-6d %12d %12d %12d@." c (m Registry.Tree) (m Registry.Fast_path)
        (m Registry.Graceful))
    [ 1; 2; 4; 8; 16; 32; 64 ];
  row "  (fast path wins while c <= k; tree cost is flat; graceful interpolates)@."

(* ----------------------------- Resilience ------------------------------- *)

let resilience () =
  let n = 16 and k = 4 in
  section
    (Printf.sprintf
       "R1 / Section 1: resiliency — f crashes inside the CS, N=%d k=%d (tolerates f <= %d)" n
       k (k - 1));
  row "  %-10s %-12s %-30s@." "failures" "outcome" "nonfaulty completions";
  List.iter
    (fun f ->
      let failures = List.init f (fun pid -> (pid, Kex_sim.Failures.In_cs 1)) in
      let res =
        run_workload ~iterations:3 ~budget:2_000_000 ~failures ~model:cc ~n ~k ~c:n
          (fun mem ->
            Kexclusion.Protocol.workload
              (Registry.build mem ~model:cc Registry.Graceful ~n ~k))
      in
      let completed =
        Array.fold_left
          (fun acc (p : Runner.proc_stats) -> if p.completed then acc + 1 else acc)
          0 res.procs
      in
      row "  f=%-8d %-12s %d/%d %s@." f (crash_outcome ~f ~k res) completed (n - f)
        (if f <= k - 1 then "(within resilience)" else "(beyond resilience — expected to block)"))
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------ Ablations ------------------------------- *)

(* Section 5 of the paper: k-exclusion performance should approach the
   fastest spin locks (MCS, reference [12]) as k -> 1.  Measure the gap. *)
let ablation_k1 () =
  let n = 32 in
  section
    (Printf.sprintf
       "A1 / Section 5: k=1 — the paper's algorithms vs the MCS queue lock [12], N=%d" n);
  row "  %-6s %-22s %10s %10s %10s %10s %10s@." "model" "contention" "mcs" "peterson" "tree"
    "fastpath" "graceful";
  List.iter
    (fun (model, mname) ->
      List.iter
        (fun c ->
          let baseline build label =
            let res = run_workload ~iterations:3 ~model ~n ~k:1 ~c build in
            check label res;
            (point_of res).max
          in
          let mcs =
            baseline
              (fun mem -> Kexclusion.Protocol.workload (Kexclusion.Simulated.mcs mem ~n))
              "mcs"
          in
          let peterson =
            baseline
              (fun mem -> Kexclusion.Protocol.workload (Kexclusion.Peterson.create mem ~n))
              "peterson"
          in
          let m algo = (refs ~model algo ~n ~k:1 ~c ~budget:80_000_000 ()).max in
          row "  %-6s %-22s %10d %10d %10d %10d %10d@." mname
            (if c = 1 then "none (c=1)" else Printf.sprintf "full (c=%d)" c)
            mcs peterson (m Registry.Tree) (m Registry.Fast_path) (m Registry.Graceful))
        [ 1; n ])
    [ (cc, "CC"); (dsm, "DSM") ];
  row "  (MCS is the non-resilient target; the k-exclusion algorithms pay a@.";
  row "   log N / nesting factor for (k-1)-resilience — the open gap of Sec. 5)@."

(* The fast-path gate is the whole difference between Thm 2 and Thm 3 at low
   contention: measure with and without it. *)
let ablation_gate () =
  let n = 64 and k = 4 in
  section "A2: what the fast-path gate buys — tree alone vs gate+tree, CC, c<=k";
  List.iter
    (fun c ->
      let tree = (refs ~model:cc Registry.Tree ~n ~k ~c ()).max in
      let fp = (refs ~model:cc Registry.Fast_path ~n ~k ~c ()).max in
      row "  c=%-4d tree %3d vs fast path %3d  (gate saves %d refs/acq)@." c tree fp (tree - fp))
    [ 1; 2; 4 ]

(* The renaming trade-off: Figure 7's TAS scan (long-lived, name space
   exactly k) vs the companion paper [13]'s splitter grid (read/write only,
   wait-free, one-shot, name space k(k+1)/2). *)
let renaming_cmp () =
  section "A3: renaming — Figure 7 (test-and-set) vs splitter grid [13] (read/write)";
  row "  %-6s %-26s %-30s@." "k" "fig7: names, max refs/acq" "splitter: names, max refs (one-shot)";
  List.iter
    (fun k ->
      (* Figure 7 at full k concurrency *)
      let fig7_cost =
        let res =
          run_workload ~iterations:4 ~cs_delay:3 ~model:cc ~n:k ~k ~c:k (fun mem ->
              let r = Kexclusion.Simulated.renaming mem ~k in
              Kexclusion.Protocol.named_workload
                { Kexclusion.Protocol.assignment_name = "fig7";
                  acquire = (fun ~pid:_ -> Kexclusion.Simulated.rename r);
                  try_acquire = (fun ~pid:_ -> Op.map Option.some (Kexclusion.Simulated.rename r));
                  release = (fun ~pid:_ ~name -> Kexclusion.Simulated.unname r ~name) })
        in
        check "fig7-renaming" res;
        (point_of res).max
      in
      let splitter_cost =
        let res =
          run_workload ~iterations:1 ~cs_delay:1 ~model:cc ~n:k ~k ~c:k (fun mem ->
              let t = Kexclusion.Splitter_renaming.create mem ~k in
              { Runner.acquire = (fun ~pid -> Kexclusion.Splitter_renaming.acquire t ~pid);
                release = (fun ~pid:_ ~name:_ -> Kex_sim.Op.return ());
                check_names = false; cs_body = None })
        in
        check "splitter-renaming" res;
        (point_of res).max
      in
      row "  %-6d %-26s %-30s@." k
        (Printf.sprintf "%d names, %d refs" k fig7_cost)
        (Printf.sprintf "%d names, %d refs"
           (Kexclusion.Splitter_renaming.name_space ~k)
           splitter_cost))
    [ 2; 4; 8; 16 ];
  row "  (fig7: optimal name space, needs TAS; splitter: read/write only,@.";
  row "   wait-free, but k(k+1)/2 names and one-shot)@."

(* The full Section 1 methodology measured in the paper's own metric: remote
   references per resilient-object operation (wrapper entry + wait-free op +
   wrapper exit), with contention and crash sweeps. *)
let methodology () =
  let n = 32 and k = 4 in
  let counter st op = (st + op, st + op) in
  let build mem ~model =
    Kexclusion.Methodology.create mem ~model ~algo:Kexclusion.Registry.Fast_path ~n ~k ~init:0
      ~apply:counter ~op:(fun ~pid:_ -> 1)
  in
  section
    (Printf.sprintf
       "R2 / Section 1: resilient counter = fast path + renaming + wait-free object, N=%d k=%d"
       n k);
  row "  %-6s %-6s %-24s %s@." "model" "c" "refs/operation" "note";
  List.iter
    (fun (model, mname) ->
      List.iter
        (fun c ->
          let mem = Memory.create () in
          let m = build mem ~model in
          let cost = Cost_model.create model ~n_procs:n in
          let cfg =
            Runner.config ~n ~k ~iterations:3 ~cs_delay:1
              ~participants:(List.init c Fun.id) ~step_budget:20_000_000 ()
          in
          let res = Runner.run cfg mem cost (Kexclusion.Methodology.workload m) in
          note_steps res;
          check "methodology" res;
          let p = point_of res in
          row "  %-6s %-6d %-24s %s@." mname c
            (Format.asprintf "%a" pp_point p)
            (if c <= k then "effectively wait-free (no waiting at the wrapper)" else ""))
        [ 1; k; n ])
    [ (cc, "CC"); (dsm, "DSM") ];
  (* crash sweep: f processes die mid-operation *)
  row "  --- crashes in the middle of an operation (CC, c=n) ---@.";
  List.iter
    (fun f ->
      let failures =
        List.init f (fun pid ->
            (pid, Kex_sim.Failures.In_cs_after { acquisition = 1; after_steps = 2 + pid }))
      in
      let mem = Memory.create () in
      let m = build mem ~model:cc in
      let cost = Cost_model.create cc ~n_procs:n in
      let cfg =
        Runner.config ~n ~k ~iterations:2 ~cs_delay:1 ~failures ~step_budget:20_000_000 ()
      in
      let res = Runner.run cfg mem cost (Kexclusion.Methodology.workload m) in
      note_steps res;
      let completed =
        Array.fold_left
          (fun acc (p : Runner.proc_stats) -> if p.completed then acc + 1 else acc)
          0 res.procs
      in
      row "  f=%-4d %-12s survivors completed %d/%d, operations linearized %d@." f
        (crash_outcome ~f ~k res) completed (n - f)
        (Kexclusion.Universal_sim.applied_count (Kexclusion.Methodology.inner m) mem))
    [ 0; 1; 3; 4 ];
  row "  (f <= %d: survivors finish and dead half-done ops are completed by helpers;@." (k - 1);
  row "   f = %d exhausts the wrapper slots — the documented resilience boundary)@." k

(* ------------------------------ registry -------------------------------- *)

let all : (string * (unit -> unit)) list =
  [ ("table1", table1);
    ("thm1", thm1);
    ("thm2", thm2);
    ("thm3", thm3);
    ("thm4", thm4);
    ("thm5", thm5);
    ("thm6", thm6);
    ("thm7", thm7);
    ("thm8", thm8);
    ("thm9", thm9);
    ("thm10", thm10);
    ("fig3", fig3);
    ("ablation-k1", ablation_k1);
    ("ablation-gate", ablation_gate);
    ("renaming", renaming_cmp);
    ("resilience", resilience);
    ("methodology", methodology) ]
