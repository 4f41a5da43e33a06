(* Simulator-side measurement helpers shared by every experiment.  The
   measured quantity is the paper's own metric: remote memory references per
   critical-section acquisition (entry + exit), max and mean over all
   completed acquisitions. *)

open Kexclusion.Import

type point = { max : int; mean : float; p50 : int; p99 : int }

let pp_point ppf p =
  Format.fprintf ppf "max %3d mean %6.1f p50 %3d p99 %3d" p.max p.mean p.p50 p.p99

(* Per-domain output and stats context.  bench/main.ml buffers each
   experiment's output so -j N can fan experiments across domains and still
   print results in submission order, byte-identical to a sequential run;
   the same context accumulates the headline numbers for the BENCH_sim.json
   emitter, and every verdict that breaks a theorem bound or the resilience
   claim, so the driver can fail the run after printing it all.
   Domain-local so worker domains never share a formatter. *)
type collected = {
  mutable steps : int;  (* simulator steps across every run in this context *)
  mutable points : (string * point) list;  (* checked runs, reversed *)
  mutable breaches : string list;  (* EXCEEDED / UNSAFE / blocked-within, reversed *)
}

let fresh () = { steps = 0; points = []; breaches = [] }
let context = Domain.DLS.new_key (fun () -> (Format.std_formatter, fresh ()))
let set_context ppf = Domain.DLS.set context (ppf, fresh ())
let formatter () = fst (Domain.DLS.get context)

let collected () =
  let c = snd (Domain.DLS.get context) in
  (c.steps, List.rev c.points, List.rev c.breaches)

let breach what =
  let c = snd (Domain.DLS.get context) in
  c.breaches <- what :: c.breaches

let note_steps (res : Runner.result) =
  let c = snd (Domain.DLS.get context) in
  c.steps <- c.steps + res.total_steps

let run_workload ?(iterations = 3) ?(cs_delay = 2) ?(budget = 0) ?failures ~model ~n ~k ~c
    build =
  let mem = Memory.create () in
  let workload = build mem in
  let cost = Cost_model.create model ~n_procs:n in
  let cfg =
    Runner.config ~n ~k ~iterations ~cs_delay ?failures
      ~participants:(List.init c Fun.id) ~step_budget:budget ()
  in
  let res = Runner.run cfg mem cost workload in
  note_steps res;
  res

let point_of res =
  let s = Kex_sim.Stats.summarize res in
  { max = s.Kex_sim.Stats.max_remote; mean = s.mean_remote; p50 = s.p50_remote;
    p99 = s.p99_remote }

let check label (res : Runner.result) =
  if not res.ok then
    failwith
      (Printf.sprintf "experiment %s: run failed (%s)" label
         (if res.stalled then "stalled" else String.concat "; " res.violations))
  else begin
    let c = snd (Domain.DLS.get context) in
    c.points <- (label, point_of res) :: c.points
  end

let refs ?iterations ?cs_delay ?budget ~model algo ~n ~k ~c () =
  let res =
    run_workload ?iterations ?cs_delay ?budget ~model ~n ~k ~c (fun mem ->
        Kexclusion.Protocol.workload (Kexclusion.Registry.build mem ~model algo ~n ~k))
  in
  check (Kexclusion.Registry.algo_name algo) res;
  point_of res

let refs_assignment ?iterations ?cs_delay ?budget ~model algo ~n ~k ~c () =
  let res =
    run_workload ?iterations ?cs_delay ?budget ~model ~n ~k ~c (fun mem ->
        Kexclusion.Protocol.named_workload
          (Kexclusion.Registry.build_assignment mem ~model algo ~n ~k))
  in
  check (Kexclusion.Registry.algo_name algo ^ "+assignment") res;
  point_of res

let section title =
  Format.fprintf (formatter ()) "@.=== %s ===@." title

let row fmt = Format.fprintf (formatter ()) fmt

let bound_row ~label ~measured ~bound =
  let within = measured.max <= bound in
  if not within then breach (Printf.sprintf "%s: max %d EXCEEDED bound %d" label measured.max bound);
  row "  %-24s measured %-22s bound %4d   [%s]@." label
    (Format.asprintf "%a" pp_point measured)
    bound
    (if within then "ok" else "EXCEEDED")

(* A crash run's outcome with [f] processes dead: UNSAFE always breaks the
   claim, blocked only within the resilience bound f <= k-1. *)
let crash_outcome ~f ~k (res : Runner.result) =
  let outcome =
    if res.violations <> [] then "UNSAFE" else if res.stalled then "blocked" else "all done"
  in
  if res.violations <> [] || (res.stalled && f <= k - 1) then
    breach (Printf.sprintf "f=%d: %s (within resilience: f <= %d)" f outcome (k - 1));
  outcome
