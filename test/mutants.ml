(* The seeded-bug corpus: every mutant must be killed by exactly the check
   it was seeded for, and the kill must come with a usable witness.  The
   real algorithms passing clean is asserted in test_lint.ml; together the
   two pin the analyzer's sensitivity from both sides. *)

module A = Kex_analysis

let analyze m = A.Lint.analyze m.A.Mutants.m_subject

let test_corpus_size () =
  (* the ISSUE floor: at least 4 seeded bugs, covering both layers *)
  Alcotest.(check bool) ">= 4 mutants" true (List.length A.Mutants.all >= 4);
  let static, dynamic =
    List.partition (fun m -> A.Finding.is_static m.A.Mutants.m_expected) A.Mutants.all
  in
  Alcotest.(check bool) "static checks covered" true (List.length static >= 2);
  Alcotest.(check bool) "dynamic checks covered" true (List.length dynamic >= 2)

let test_each_mutant_killed_by_expected_check () =
  List.iter
    (fun m ->
      let r = analyze m in
      if not (A.Finding.kills m.A.Mutants.m_expected r.A.Lint.r_findings) then
        Alcotest.failf "%s survived: expected %s, got [%s]" m.A.Mutants.m_name
          (A.Finding.id m.A.Mutants.m_expected)
          (String.concat "; "
             (List.map
                (fun f -> A.Finding.id f.A.Finding.check)
                r.A.Lint.r_findings)))
    A.Mutants.all

let test_kills_have_witnesses () =
  (* Static kills must carry a source-site witness (a CFG path or loop);
     dynamic kills must name a site and say what happened. *)
  List.iter
    (fun m ->
      let r = analyze m in
      let f =
        List.find
          (fun f -> f.A.Finding.check = m.A.Mutants.m_expected && not f.A.Finding.waived)
          r.A.Lint.r_findings
      in
      Alcotest.(check bool) (m.A.Mutants.m_name ^ ": has site") true (f.A.Finding.site <> "");
      Alcotest.(check bool)
        (m.A.Mutants.m_name ^ ": has detail")
        true
        (String.length f.A.Finding.detail > 10);
      if
        A.Finding.is_static m.A.Mutants.m_expected
        && m.A.Mutants.m_expected <> A.Finding.L4_bfaa_range
      then
        Alcotest.(check bool)
          (m.A.Mutants.m_name ^ ": static witness path")
          true (f.A.Finding.witness <> []))
    A.Mutants.all

let test_mutant_names_unique () =
  let names = List.map (fun m -> m.A.Mutants.m_name) A.Mutants.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---------------------------------------------------------------------- *)
(* The sanitizer's name-discipline check riding a randomized model-checker
   hunt through [?on_step].  Figure 7 with the bit clear patched out
   (lib/figure_mutants) leaks name bits, so eventually two processes hold
   the last name concurrently; the model's own uniqueness invariant is
   stripped to prove the external checker does the catching. *)

module Traced = Kex_verify.Traced
module Shipped = Kex_verify.Shipped
module No_clear = Shipped.Make (Kex_figure_mutants.Fig7_no_clear.Make (Traced))

let fig7_holders s procs =
  List.filter_map
    (fun pid -> Option.map (fun nm -> (pid, nm)) (Shipped.held_name s pid))
    (List.init procs Fun.id)

let hunt_no_clear ~renaming =
  let procs = 3 and k = 3 in
  let (module M) : Shipped.model = renaming ~procs ~k ~max_crashes:0 in
  let module Stripped = struct
    include M

    let invariants =
      List.filter (fun (name, _) -> name <> "names unique and in range") M.invariants
  end in
  let on_step s = A.Sanitizer.check_unique_names ~k (fig7_holders s procs) in
  (* pinned seeds: the run is deterministic *)
  Kex_verify.Explore.hunt (module Stripped) ~on_step ~seeds:(List.init 50 Fun.id)
    ~steps:400 ()

let test_hunt_on_step_catches_no_clear () =
  match hunt_no_clear ~renaming:No_clear.renaming with
  | None -> Alcotest.fail "hunt with on_step missed the No_clear duplicate name"
  | Some v ->
      Alcotest.(check bool) "reports a name problem" true
        (String.length v.Kex_verify.Explore.property > 0);
      Alcotest.(check bool) "carries a trace" true
        (List.length v.Kex_verify.Explore.trace > 1)

let test_hunt_on_step_clean_on_faithful () =
  match hunt_no_clear ~renaming:Shipped.Figures.renaming with
  | None -> ()
  | Some v ->
      Alcotest.failf "faithful fig7 flagged by on_step: %s" v.Kex_verify.Explore.property

let suite =
  [ Alcotest.test_case "corpus covers both layers" `Quick test_corpus_size;
    Alcotest.test_case "every mutant killed by its expected check" `Slow
      test_each_mutant_killed_by_expected_check;
    Alcotest.test_case "kills carry witnesses" `Slow test_kills_have_witnesses;
    Alcotest.test_case "mutant names unique" `Quick test_mutant_names_unique;
    Alcotest.test_case "hunt ?on_step catches fig7 No_clear (pinned seeds)" `Quick
      test_hunt_on_step_catches_no_clear;
    Alcotest.test_case "hunt ?on_step quiet on faithful fig7" `Quick
      test_hunt_on_step_clean_on_faithful ]
