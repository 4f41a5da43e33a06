(* Trace recording and schedule replay: a random-schedule run can be
   re-executed exactly from its recorded schedule. *)

open Kexclusion.Import
open Helpers
module Trace = Kex_sim.Trace

let run_traced ?tracer ~scheduler () =
  let mem = Memory.create () in
  let p = Registry.build mem ~model:cc Registry.Fast_path ~n:6 ~k:2 in
  let cost = Cost_model.create cc ~n_procs:6 in
  let cfg =
    Runner.config ~n:6 ~k:2 ~iterations:3 ~cs_delay:2 ~scheduler
      ?hooks:(Option.map Trace.hooks tracer) ()
  in
  Runner.run cfg mem cost (Protocol.workload p)

let digest (res : Runner.result) =
  ( res.total_steps,
    Array.map (fun (p : Runner.proc_stats) -> (p.steps, p.total_remote, p.remote_per_acq)) res.procs )

let test_trace_records_all_steps () =
  let tr = Trace.create () in
  let res = run_traced ~tracer:tr ~scheduler:(Scheduler.round_robin ()) () in
  assert_ok res;
  Alcotest.(check int) "one schedule entry per step" res.Runner.total_steps
    (List.length (Trace.schedule tr));
  Alcotest.(check bool) "entries recorded" true (Trace.length tr > res.total_steps)

let test_replay_reproduces_run () =
  let tr = Trace.create () in
  let res1 = run_traced ~tracer:tr ~scheduler:(Scheduler.random ~seed:77) () in
  assert_ok res1;
  let res2 = run_traced ~scheduler:(Scheduler.replay ~schedule:(Trace.schedule tr)) () in
  assert_ok res2;
  Alcotest.(check bool) "identical digests" true (digest res1 = digest res2)

let test_ring_buffer_eviction () =
  let tr = Trace.create ~capacity:10 () in
  let res = run_traced ~tracer:tr ~scheduler:(Scheduler.round_robin ()) () in
  assert_ok res;
  Alcotest.(check int) "window capped" 10 (List.length (Trace.entries tr));
  (* schedule is kept in full regardless of the window *)
  Alcotest.(check int) "schedule complete" res.Runner.total_steps
    (List.length (Trace.schedule tr))

let test_crash_recorded () =
  let tr = Trace.create () in
  let mem = Memory.create () in
  let p = Registry.build mem ~model:cc Registry.Graceful ~n:4 ~k:2 in
  let cost = Cost_model.create cc ~n_procs:4 in
  let cfg =
    Runner.config ~n:4 ~k:2 ~iterations:2 ~cs_delay:2 ~hooks:(Trace.hooks tr)
      ~failures:[ (1, Kex_sim.Failures.In_cs 1) ]
      ()
  in
  let res = Runner.run cfg mem cost (Protocol.workload p) in
  Alcotest.(check (list string)) "safe" [] res.Runner.violations;
  let crashes =
    List.filter (function Trace.Crashed { pid } -> pid = 1 | _ -> false) (Trace.entries tr)
  in
  Alcotest.(check int) "crash recorded once" 1 (List.length crashes)

let test_pp_smoke () =
  let tr = Trace.create () in
  let res = run_traced ~tracer:tr ~scheduler:(Scheduler.round_robin ()) () in
  assert_ok res;
  let s = Format.asprintf "%a" (Trace.pp ~last:25) tr in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prints something" true (String.length s > 100);
  Alcotest.(check bool) "mentions events" true (contains s "exit-end")

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_schedule_capture_disabled () =
  (* The schedule grows one element per step for the whole run; turning
     capture off keeps a long-running trace bounded by [capacity]. *)
  let tr = Trace.create ~capacity:16 ~record_schedule:false () in
  Alcotest.(check bool) "flag reported" false (Trace.records_schedule tr);
  let res = run_traced ~tracer:tr ~scheduler:(Scheduler.round_robin ()) () in
  assert_ok res;
  Alcotest.(check bool) "steps were recorded" true (Trace.length tr > res.Runner.total_steps);
  Alcotest.(check int) "entry window capped" 16 (List.length (Trace.entries tr));
  Alcotest.(check (list int)) "no schedule captured" [] (Trace.schedule tr)

let test_block_footprint_rendered () =
  (* Atomic blocks are traced with their footprint and per-cell remote
     count, not as a bare <name>. *)
  let tr = Trace.create () in
  let mem = Memory.create () in
  let p = Registry.build mem ~model:cc Registry.Queue ~n:4 ~k:1 in
  let cost = Cost_model.create cc ~n_procs:4 in
  let cfg = Runner.config ~n:4 ~k:1 ~iterations:2 ~cs_delay:3 ~hooks:(Trace.hooks tr) () in
  let res = Runner.run cfg mem cost (Protocol.workload p) in
  assert_ok res;
  let s = Format.asprintf "%a" (Trace.pp ?last:None) tr in
  Alcotest.(check bool) "block footprint shown" true (contains s "<faa-enqueue r{");
  Alcotest.(check bool) "write set shown" true (contains s "} w{");
  Alcotest.(check bool) "multi-remote blocks counted" true (contains s " remote)");
  Alcotest.(check bool) "no bare block name" false (contains s "<faa-enqueue>")

let test_replay_tolerates_divergence () =
  (* A schedule from a different configuration must still terminate (skips +
     round-robin fallback), never hang. *)
  let tr = Trace.create () in
  let res1 = run_traced ~tracer:tr ~scheduler:(Scheduler.random ~seed:5) () in
  assert_ok res1;
  (* replay against a different protocol/config *)
  let mem = Memory.create () in
  let p = Registry.build mem ~model:dsm Registry.Tree ~n:4 ~k:1 in
  let cost = Cost_model.create dsm ~n_procs:4 in
  let cfg =
    Runner.config ~n:4 ~k:1 ~iterations:2 ~cs_delay:1
      ~scheduler:(Scheduler.replay ~schedule:(Trace.schedule tr))
      ()
  in
  let res2 = Runner.run cfg mem cost (Protocol.workload p) in
  assert_ok res2

let suite =
  [ tc "trace records one entry per step" test_trace_records_all_steps;
    tc "replay reproduces a random run exactly" test_replay_reproduces_run;
    tc "ring buffer keeps the tail, schedule stays whole" test_ring_buffer_eviction;
    tc "crashes are recorded" test_crash_recorded;
    tc "pretty-printer smoke" test_pp_smoke;
    tc "schedule capture can be disabled" test_schedule_capture_disabled;
    tc "atomic blocks traced with footprint and remote count" test_block_footprint_rendered;
    tc "replay tolerates divergent configurations" test_replay_tolerates_divergence ]
