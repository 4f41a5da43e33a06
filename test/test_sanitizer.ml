(* The dynamic sanitizer: pure name-discipline helper, hook wiring through
   the runner, and the protected-cell / watchdog checks. *)

open Kex_sim
module A = Kex_analysis

let test_check_unique_names () =
  let check = A.Sanitizer.check_unique_names in
  Alcotest.(check bool) "empty ok" true (check ~k:3 [] = None);
  Alcotest.(check bool) "distinct ok" true (check ~k:3 [ (0, 0); (1, 2); (2, 1) ] = None);
  Alcotest.(check bool) "duplicate caught" true (check ~k:3 [ (0, 1); (1, 1) ] <> None);
  Alcotest.(check bool) "out of range caught" true (check ~k:3 [ (0, 3) ] <> None);
  Alcotest.(check bool) "negative caught" true (check ~k:3 [ (0, -1) ] <> None)

let run_with_sanitizer ?(model = Cost_model.Cache_coherent) ?(protected = [])
    ?(intended_spin = []) ?spin_threshold ?(cs_delay = 2) ~n ~k make =
  let mem, w = make () in
  let san =
    A.Sanitizer.create mem
      (A.Sanitizer.config ?spin_threshold ~k ~protected ~intended_spin ())
  in
  let cfg =
    Runner.config ~iterations:3 ~cs_delay ~hooks:(A.Sanitizer.hooks san) ~n ~k ()
  in
  let res = Runner.run cfg mem (Cost_model.create model ~n_procs:n) w in
  (res, A.Sanitizer.findings san)

let correct_workload ~model ~n ~k () =
  let mem = Memory.create () in
  let named =
    Kexclusion.Registry.build_assignment mem ~model Kexclusion.Registry.Tree ~n ~k
  in
  (mem, Kexclusion.Protocol.named_workload named)

let test_correct_algorithm_no_findings () =
  List.iter
    (fun model ->
      let res, findings =
        run_with_sanitizer ~model ~n:5 ~k:2 (correct_workload ~model ~n:5 ~k:2)
      in
      Alcotest.(check bool) "run ok" true res.Runner.ok;
      Alcotest.(check int) "no findings" 0 (List.length findings))
    [ Cost_model.Cache_coherent; Cost_model.Distributed ]

let test_protected_write_caught () =
  let make () =
    let mem = Memory.create () in
    let named =
      Kexclusion.Registry.build_assignment mem ~model:Cost_model.Cache_coherent
        Kexclusion.Registry.Inductive ~n:4 ~k:2
    in
    let payload = Memory.alloc mem ~label:"cs.payload" ~init:0 1 in
    let w = Kexclusion.Protocol.named_workload named in
    let acquire ~pid =
      let open Op in
      (* write the protected cell while still in the entry section *)
      let* () = write payload 9 in
      w.Runner.acquire ~pid
    in
    (mem, { w with Runner.acquire })
  in
  let _res, findings =
    run_with_sanitizer ~protected:[ "cs.payload" ] ~n:4 ~k:2 make
  in
  Alcotest.(check bool) "S-protected-write fired" true
    (List.exists (fun f -> f.A.Finding.check = A.Finding.S_protected_write) findings);
  (* the finding names the cell by its region label *)
  let f =
    List.find (fun f -> f.A.Finding.check = A.Finding.S_protected_write) findings
  in
  Alcotest.(check bool) "site carries the label" true
    (String.length f.A.Finding.site >= 10 && String.sub f.A.Finding.site 0 10 = "cs.payload")

let test_watchdog_fires_on_remote_spin () =
  (* Figure 2's spin on the unowned cell Q, deployed on DSM: every poll is a
     charged-remote read of the same cell, so the watchdog must trip. *)
  let model = Cost_model.Distributed in
  let make () =
    let mem = Memory.create () in
    let kex =
      Kexclusion.Simulated.inductive mem ~block:Kexclusion.Simulated.fig2 ~n:4 ~k:2
    in
    let named = Kexclusion.Simulated.assignment mem ~kex ~k:2 in
    (mem, Kexclusion.Protocol.named_workload named)
  in
  (* long critical-section dwell: the waiter spins well past the threshold *)
  let _res, findings = run_with_sanitizer ~model ~cs_delay:20 ~n:4 ~k:2 make in
  Alcotest.(check bool) "S-spin-watchdog fired" true
    (List.exists
       (fun f -> f.A.Finding.check = A.Finding.S_spin_watchdog && not f.A.Finding.waived)
       findings)

let test_watchdog_waived_by_intended_spin () =
  (* The same remote spin, but at a declared intended-spin site: still
     reported, but waived. *)
  let model = Cost_model.Distributed in
  let make () =
    let mem = Memory.create () in
    let kex =
      Kexclusion.Simulated.inductive mem ~block:Kexclusion.Simulated.fig2 ~n:4 ~k:2
    in
    let named = Kexclusion.Simulated.assignment mem ~kex ~k:2 in
    (mem, Kexclusion.Protocol.named_workload named)
  in
  let _res, findings =
    run_with_sanitizer ~model ~intended_spin:[ "fig2." ] ~cs_delay:20 ~n:4 ~k:2 make
  in
  let watchdog =
    List.filter (fun f -> f.A.Finding.check = A.Finding.S_spin_watchdog) findings
  in
  Alcotest.(check bool) "watchdog still reports" true (watchdog <> []);
  List.iter
    (fun f -> Alcotest.(check bool) ("waived: " ^ f.A.Finding.site) true f.A.Finding.waived)
    watchdog

let test_kexclusion_breach_caught () =
  (* Both workers walk straight into the critical section: 2 > k = 1. *)
  let make () =
    let mem = Memory.create () in
    let open Op in
    let w =
      Runner.plain_workload
        ~acquire:(fun ~pid:_ -> return 0)
        ~release:(fun ~pid:_ ~name:_ -> return ())
        ~check_names:false
    in
    ( mem,
      { w with
        Runner.acquire = (fun ~pid:_ -> delay 1 >>= fun () -> return 0) } )
  in
  let _res, findings = run_with_sanitizer ~n:2 ~k:1 make in
  Alcotest.(check bool) "S-kexclusion fired" true
    (List.exists (fun f -> f.A.Finding.check = A.Finding.S_kexclusion) findings)

let suite =
  [ Alcotest.test_case "check_unique_names" `Quick test_check_unique_names;
    Alcotest.test_case "correct algorithm: zero findings" `Quick
      test_correct_algorithm_no_findings;
    Alcotest.test_case "protected write outside CS caught" `Quick test_protected_write_caught;
    Alcotest.test_case "watchdog fires on remote spin" `Quick
      test_watchdog_fires_on_remote_spin;
    Alcotest.test_case "watchdog waived at intended sites" `Quick
      test_watchdog_waived_by_intended_spin;
    Alcotest.test_case "k-exclusion breach caught" `Quick test_kexclusion_breach_caught ]
