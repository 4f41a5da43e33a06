(* Deterministic debugging: record a randomly-scheduled simulation, then
   replay its exact interleaving from the extracted schedule.

   This is the workflow for chasing a protocol bug: find a failing seed,
   record the trace, replay it as many times as needed, and read the
   per-step log around the violation.

   Run with: dune exec examples/trace_replay.exe *)

open Kexclusion.Import

let run ?tracer ~scheduler () =
  let mem = Memory.create () in
  let p = Kexclusion.Registry.build mem ~model:Cost_model.Cache_coherent Kexclusion.Registry.Graceful ~n:5 ~k:2 in
  let cost = Cost_model.create Cost_model.Cache_coherent ~n_procs:5 in
  let cfg =
    Runner.config ~n:5 ~k:2 ~iterations:2 ~cs_delay:2 ~scheduler
      ?hooks:(Option.map Kex_sim.Trace.hooks tracer) ()
  in
  Runner.run cfg mem cost (Kexclusion.Protocol.workload p)

let () =
  let tracer = Kex_sim.Trace.create () in
  let original = run ~tracer ~scheduler:(Kex_sim.Scheduler.random ~seed:2024) () in
  assert original.Runner.ok;
  let schedule = Kex_sim.Trace.schedule tracer in
  Printf.printf "recorded run : %d steps, %d trace entries\n" original.total_steps
    (Kex_sim.Trace.length tracer);
  let replayed = run ~scheduler:(Kex_sim.Scheduler.replay ~schedule) () in
  assert replayed.Runner.ok;
  Printf.printf "replayed run : %d steps (%s)\n" replayed.total_steps
    (if replayed.total_steps = original.total_steps then "identical" else "DIVERGED");
  assert (replayed.total_steps = original.total_steps);
  print_endline "last 12 trace entries of the recorded run:";
  Format.printf "%a" (Kex_sim.Trace.pp ~last:12) tracer;
  print_endline "ok — schedules replay deterministically"
