(* srclint: the source-level concurrency lint.  Per-check fixtures (each
   positive finding paired with a clean twin), the one bare-lock shape S1
   accepts (Sync.with_lock's own body) and its near misses, the absence of
   waivers (an [@srclint.allow] attribute or a manifest entry leaves a
   finding reported, un-waived), and the seeded-mutant kill matrix: every
   mutant killed by exactly its expected check. *)

module A = Kex_analysis

let lint ?(manifest = []) ?(path = "fix/fixture.ml") src =
  A.Srclint.lint_source ~manifest ~path src

let ids fr =
  List.sort_uniq compare
    (List.map (fun (f : A.Finding.t) -> A.Finding.id f.A.Finding.check) fr.A.Srclint.fr_findings)

let check_ids what expected fr = Alcotest.(check (list string)) what expected (ids fr)

let check_clean what fr =
  if not (A.Srclint.file_clean fr) then
    Alcotest.failf "%s: expected clean, got: %s" what (String.concat ", " (ids fr))

(* ------------------------------- S1 ------------------------------------- *)

let test_s1_raising_region () =
  (* Queue.pop can raise Empty between a bare lock/unlock pair. *)
  check_ids "bare raising region" [ "S1-lock-leak" ]
    (lint {|
let pop m q =
  Mutex.lock m;
  let x = Queue.pop q in
  Mutex.unlock m;
  x
|});
  (* The same body through the blessed combinator is fine. *)
  check_clean "with_lock twin"
    (lint {|
let pop m q = Sync.with_lock m (fun () -> Queue.pop q)
|})

let test_s1_nonraising_bare_region () =
  (* A bare pair is S1 even around code that cannot raise: the rule is
     that every mutex is taken through Sync.with_lock. *)
  check_ids "non-raising bare region" [ "S1-lock-leak" ]
    (lint
       {|
type t = { m : Mutex.t; mutable n : int }

let length t =
  Mutex.lock t.m;
  let n = t.n + 1 in
  Mutex.unlock t.m;
  n
|})

let test_s1_early_return () =
  check_ids "early return holds lock" [ "S1-lock-leak" ]
    (lint
       {|
type t = { m : Mutex.t; mutable ok : bool }

let f t =
  Mutex.lock t.m;
  if t.ok then begin
    Mutex.unlock t.m;
    1
  end
  else 0
|})

let test_s1_if_without_else () =
  check_ids "if without else" [ "S1-lock-leak" ]
    (lint {|
let f m p =
  Mutex.lock m;
  if p then Mutex.unlock m
|})

let test_s1_try_finally_shape () =
  (* The explicit match-with-exception finally — Sync.with_lock's own body
     — is the one shape a bare Mutex.lock may open. *)
  check_clean "match-exception finally"
    (lint
       {|
let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e
|})

let test_s1_fun_protect_shape () =
  (* Exception-safe, but not the with_lock shape: S1. *)
  check_ids "Fun.protect finally" [ "S1-lock-leak" ]
    (lint
       {|
let g m q =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> Queue.pop q)
|})

let test_s1_broken_try_finally () =
  (* The exception continuation forgets to release: the shape is not
     recognized and the bare lock is flagged. *)
  check_ids "broken finally" [ "S1-lock-leak" ]
    (lint
       {|
let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e -> raise e
|})

(* ------------------------------- S2 ------------------------------------- *)

let test_s2_if_guarded_wait () =
  check_ids "if-guarded wait" [ "S2-wait-without-recheck" ]
    (lint
       {|
type t = { m : Mutex.t; c : Condition.t; mutable ready : bool }

let await t =
  Sync.with_lock t.m (fun () ->
      if not t.ready then Condition.wait t.c t.m;
      t.ready)
|});
  check_clean "while-loop twin"
    (lint
       {|
type t = { m : Mutex.t; c : Condition.t; mutable ready : bool }

let await t =
  Sync.with_lock t.m (fun () ->
      while not t.ready do
        Condition.wait t.c t.m
      done;
      t.ready)
|})

(* ------------------------------- S3 ------------------------------------- *)

let test_s3_blocking_under_lock () =
  check_ids "sleep under lock" [ "S3-blocking-under-lock" ]
    (lint {|
let pause m = Sync.with_lock m (fun () -> Unix.sleepf 0.001)
|});
  check_clean "sleep outside lock twin"
    (lint {|
let pause m =
  Sync.with_lock m (fun () -> ());
  Unix.sleepf 0.001
|})

(* ------------------------------- S4 ------------------------------------- *)

let test_s4_get_then_set () =
  check_ids "direct get-then-set" [ "S4-nonatomic-rmw" ]
    (lint {|
let bump a = Atomic.set a (Atomic.get a + 1)
|});
  check_ids "let-flow get-then-set" [ "S4-nonatomic-rmw" ]
    (lint {|
let bump a =
  let v = Atomic.get a in
  Atomic.set a (v + 1)
|});
  check_clean "CAS-loop twin"
    (lint
       {|
let rec bump a =
  let v = Atomic.get a in
  if not (Atomic.compare_and_set a v (v + 1)) then bump a
|});
  check_clean "fetch_and_add twin"
    (lint {|
let bump a = ignore (Atomic.fetch_and_add a 1)
|})

let test_s4_different_cells_ok () =
  (* get of one atomic feeding a set of another is not an RMW. *)
  check_clean "cross-cell get/set"
    (lint {|
let copy a b = Atomic.set b (Atomic.get a)
|})

(* ------------------------------- S5 ------------------------------------- *)

let backlog_manifest =
  [ A.Srclint.rules "fix/backlog.ml"
      ~guards:[ { A.Srclint.g_lock = "m"; g_fields = [ "backlog" ] } ] ]

let test_s5_unguarded_access () =
  check_ids "unguarded read" [ "S5-unguarded-state" ]
    (lint ~manifest:backlog_manifest ~path:"fix/backlog.ml"
       {|
type t = { m : Mutex.t; mutable backlog : int }

let depth t = t.backlog
|});
  check_clean "guarded twin"
    (lint ~manifest:backlog_manifest ~path:"fix/backlog.ml"
       {|
type t = { m : Mutex.t; mutable backlog : int }

let depth t = Sync.with_lock t.m (fun () -> t.backlog)
|})

let test_s5_wrapper_recognized () =
  (* A manifest-declared local wrapper (routing's [locked]) counts as
     holding the lock. *)
  let manifest =
    [ A.Srclint.rules "fix/wrap.ml"
        ~guards:[ { A.Srclint.g_lock = "m"; g_fields = [ "count" ] } ]
        ~wrappers:[ { A.Srclint.wr_fn = "locked"; wr_lock = "m" } ] ]
  in
  check_clean "wrapper-guarded access"
    (lint ~manifest ~path:"fix/wrap.ml"
       {|
type t = { m : Mutex.t; mutable count : int }

let locked t f = Sync.with_lock t.m f

let bump t = locked t (fun () -> t.count <- t.count + 1)
|});
  check_ids "same module, unwrapped access" [ "S5-unguarded-state" ]
    (lint ~manifest ~path:"fix/wrap.ml"
       {|
type t = { m : Mutex.t; mutable count : int }

let locked t f = Sync.with_lock t.m f

let peek t = t.count
|})

let test_s5_atomic_only_module () =
  let manifest = [ A.Srclint.rules "fix/ao.ml" ~atomic_only:true ] in
  check_ids "mutex in atomic-only module" [ "S5-unguarded-state" ]
    (lint ~manifest ~path:"fix/ao.ml" {|
let m = Mutex.create ()
|});
  check_clean "atomics only"
    (lint ~manifest ~path:"fix/ao.ml"
       {|
let c = Atomic.make 0
let bump () = ignore (Atomic.fetch_and_add c 1)
|})

(* ------------------------------ waivers --------------------------------- *)

(* srclint has no waivers: the S3 finding stays, un-waived. *)
let check_s3_unwaived what fr =
  check_ids what [ "S3-blocking-under-lock" ] fr;
  Alcotest.(check bool)
    (what ^ ": un-waived") false
    (List.exists (fun (f : A.Finding.t) -> f.A.Finding.waived) fr.A.Srclint.fr_findings)

let test_attribute_waiver_reported () =
  check_s3_unwaived "expression attribute"
    (lint
       {|
let pause m = Sync.with_lock m (fun () -> (Unix.sleepf 0.001 [@srclint.allow S3]))
|});
  check_s3_unwaived "binding attribute"
    (lint
       {|
let[@srclint.allow S3] pause m = Sync.with_lock m (fun () -> Unix.sleepf 0.001)
|})

let test_waiver_is_check_specific () =
  (* An S3 attribute hides nothing; the bare region is S1 and nothing else. *)
  check_ids "S3 attribute leaves S1" [ "S1-lock-leak" ]
    (lint
       {|
let[@srclint.allow S3] f m q =
  Mutex.lock m;
  let x = Queue.pop q in
  Mutex.unlock m;
  x
|})

let test_manifest_waiver_reported () =
  let manifest =
    [ A.Srclint.rules "fix/mw.ml"
        ~guards:[ { A.Srclint.g_lock = "m"; g_fields = [ "backlog" ] } ] ]
  in
  check_s3_unwaived "file with a manifest entry"
    (lint ~manifest ~path:"fix/mw.ml"
       {|
let pause m = Sync.with_lock m (fun () -> Unix.sleepf 0.001)
|})

(* --------------------------- parse failures ----------------------------- *)

let test_parse_failure_is_incomplete () =
  let fr = lint "let = (" in
  Alcotest.(check bool) "not clean" false (A.Srclint.file_clean fr);
  check_ids "A-incomplete, un-waived" [ "A-incomplete" ] fr

(* ------------------------- the repo's own tree -------------------------- *)

let test_sync_combinator_self_clean () =
  (* The blessed combinator lints clean through the S1 shape match, with
     no manifest entry for its file. *)
  check_clean "Sync.with_lock source"
    (lint ~path:"lib/sync/sync.ml"
       {|
let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e
|})

let test_default_manifest_lookup () =
  (match A.Srclint.rules_for A.Srclint.default_manifest "./lib/service/wqueue.ml" with
  | None -> Alcotest.fail "no manifest entry for wqueue.ml"
  | Some r -> Alcotest.(check bool) "wqueue not atomic-only" false r.A.Srclint.mr_atomic_only);
  match A.Srclint.rules_for A.Srclint.default_manifest "lib/service/metrics.ml" with
  | None -> Alcotest.fail "no manifest entry for metrics.ml"
  | Some r -> Alcotest.(check bool) "metrics atomic-only" true r.A.Srclint.mr_atomic_only

(* ------------------------------ mutants --------------------------------- *)

let test_mutant_kill_matrix () =
  List.iter
    (fun (m : A.Srclint.file_report A.Finding.mutant) ->
      let fr = m.A.Finding.m_run () in
      match A.Finding.verdict m.A.Finding.m_expected fr.A.Srclint.fr_findings with
      | A.Finding.Killed -> ()
      | A.Finding.Survived ->
          Alcotest.failf "mutant %s survived (expected %s); got: %s" m.A.Finding.m_name
            (A.Finding.id m.A.Finding.m_expected)
            (String.concat ", " (ids fr))
      | A.Finding.Inexact ->
          Alcotest.failf "mutant %s killed inexactly: expected only %s, got %s"
            m.A.Finding.m_name
            (A.Finding.id m.A.Finding.m_expected)
            (String.concat ", " (ids fr)))
    A.Srclint_mutants.all

let test_mutant_corpus_covers_all_checks () =
  let expected =
    List.sort_uniq compare
      (List.map
         (fun (m : A.Srclint.file_report A.Finding.mutant) -> A.Finding.id m.A.Finding.m_expected)
         A.Srclint_mutants.all)
  in
  Alcotest.(check (list string))
    "one mutant per check, S1 twice"
    [ "S1-lock-leak"; "S2-wait-without-recheck"; "S3-blocking-under-lock"; "S4-nonatomic-rmw";
      "S5-unguarded-state" ]
    expected;
  let names = List.map (fun (m : A.Srclint.file_report A.Finding.mutant) -> m.A.Finding.m_name) A.Srclint_mutants.all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* -------------------------------- JSON ---------------------------------- *)

let test_json_document () =
  let fr = lint {|
let bump a = Atomic.set a (Atomic.get a + 1)
|} in
  let mutants = A.Report.judge A.Report.srclint in
  let doc = Kex_service.Json.to_string ~indent:2 (A.Report.to_json A.Report.srclint [ fr ] mutants) in
  let contains needle =
    let n = String.length needle and h = String.length doc in
    let rec go i = i + n <= h && (String.sub doc i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema id" true (contains "kexclusion-srclint/v1");
  Alcotest.(check bool) "finding id" true (contains "S4-nonatomic-rmw");
  Alcotest.(check bool) "mutant entries" true (contains "\"killed\": true");
  Alcotest.(check bool) "exactness recorded" true (contains "\"exact\": true")

(* ------------------------- S1 shape near misses ------------------------- *)

let test_s1_shape_near_misses () =
  (* Each is one edit away from Sync.with_lock's body; each is S1. *)
  List.iter
    (fun (what, src) -> check_ids what [ "S1-lock-leak" ] (lint src))
    [ ( "statement between lock and match",
        {|
let with_lock m f =
  Mutex.lock m;
  ignore (f ());
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e
|} );
      ( "other mutex unlocked in one branch",
        {|
let with_lock m m' f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m';
      raise e
|} );
      ( "exception branch does not re-raise",
        {|
let with_lock m f handle =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      handle e
|} ) ]

(* ------------------------------ I/O-free -------------------------------- *)

let test_s5_io_free_module () =
  let manifest = [ A.Srclint.rules "fix/io.ml" ~io_free:true ] in
  List.iter
    (fun (what, src) ->
      check_ids what [ "S5-unguarded-state" ] (lint ~manifest ~path:"fix/io.ml" src))
    [ ("reactor call", {|
let answer rc s = Reactor.post_write rc s
|});
      ("codec constructor", {|
let ok = Kex_service.Protocol.Ok
|});
      ("netio open", {|
open Netio
|});
      ("module alias", {|
module R = Reactor
|});
      ("codec type", {|
type reply = Protocol.response
|});
      ("socket call", {|
let fd () = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0
|}) ];
  check_clean "no I/O"
    (lint ~manifest ~path:"fix/io.ml"
       {|
let now () = Unix.gettimeofday ()
let entry (p : Kex_runtime.Protocol.t) = p
|});
  check_clean "the same names outside an I/O-free module"
    (lint {|
let answer rc s = Reactor.post_write rc s
|})

(* The tier-1 side of the I/O-free rule: [lib/service/shard.ml] is declared
   I/O-free and lints clean under its manifest entry.  The source is read
   from the repository root or, under [dune runtest], from the build tree's
   copy next to the test directory. *)
let test_shard_is_io_free () =
  let path = "lib/service/shard.ml" in
  (match A.Srclint.rules_for A.Srclint.default_manifest path with
  | None -> Alcotest.fail "no manifest entry for shard.ml"
  | Some r -> Alcotest.(check bool) "shard.ml declared I/O-free" true r.A.Srclint.mr_io_free);
  let file = if Sys.file_exists path then path else Filename.concat ".." path in
  let fr = A.Srclint.lint_file file in
  if not (A.Srclint.file_clean fr) then
    Alcotest.failf "%s: %s" path
      (String.concat "; " (List.map (fun (f : A.Finding.t) -> f.A.Finding.detail) fr.A.Srclint.fr_findings))

let suite =
  [ Alcotest.test_case "S1: raising bare region flagged, with_lock twin clean" `Quick
      test_s1_raising_region;
    Alcotest.test_case "S1: non-raising bare region flagged" `Quick
      test_s1_nonraising_bare_region;
    Alcotest.test_case "S1: early return with lock held" `Quick test_s1_early_return;
    Alcotest.test_case "S1: if without else" `Quick test_s1_if_without_else;
    Alcotest.test_case "S1: match-exception finally recognized" `Quick
      test_s1_try_finally_shape;
    Alcotest.test_case "S1: Fun.protect finally flagged" `Quick test_s1_fun_protect_shape;
    Alcotest.test_case "S1: broken finally still flagged" `Quick test_s1_broken_try_finally;
    Alcotest.test_case "S2: if-guarded wait flagged, while twin clean" `Quick
      test_s2_if_guarded_wait;
    Alcotest.test_case "S3: blocking under lock flagged, outside clean" `Quick
      test_s3_blocking_under_lock;
    Alcotest.test_case "S4: get-then-set flagged, CAS/faa twins clean" `Quick
      test_s4_get_then_set;
    Alcotest.test_case "S4: distinct cells not an RMW" `Quick test_s4_different_cells_ok;
    Alcotest.test_case "S5: manifest-guarded access" `Quick test_s5_unguarded_access;
    Alcotest.test_case "S5: local wrapper recognized" `Quick test_s5_wrapper_recognized;
    Alcotest.test_case "S5: atomic-only module" `Quick test_s5_atomic_only_module;
    Alcotest.test_case "waiver: attributes reported, not dropped" `Quick
      test_attribute_waiver_reported;
    Alcotest.test_case "waiver: check-specific" `Quick test_waiver_is_check_specific;
    Alcotest.test_case "waiver: manifest entries reported" `Quick
      test_manifest_waiver_reported;
    Alcotest.test_case "parse failure is un-waived A-incomplete" `Quick
      test_parse_failure_is_incomplete;
    Alcotest.test_case "Sync.with_lock proves itself clean" `Quick
      test_sync_combinator_self_clean;
    Alcotest.test_case "default manifest covers the service stack" `Quick
      test_default_manifest_lookup;
    Alcotest.test_case "every mutant killed by exactly its check" `Quick
      test_mutant_kill_matrix;
    Alcotest.test_case "mutant corpus covers S1-S5" `Quick test_mutant_corpus_covers_all_checks;
    Alcotest.test_case "kexclusion-srclint/v1 JSON document" `Quick test_json_document;
    Alcotest.test_case "S1: near misses of the with_lock shape flagged" `Quick
      test_s1_shape_near_misses;
    Alcotest.test_case "S5: I/O-free module" `Quick test_s5_io_free_module;
    Alcotest.test_case "lib/service/shard.ml is I/O-free and lints clean" `Quick
      test_shard_is_io_free ]
