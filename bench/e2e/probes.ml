(* The bottom of the stack: the admission wrapper [kexd serve] runs
   ([Kex_lock.Assignment], fastpath, n = 4, k = 2) timed on real domains,
   next to the simulator's remote references per acquisition for the same
   algorithm, N and k. *)

module Assignment = Kex_runtime.Kex_lock.Assignment
module Registry = Kexclusion.Registry
module Cost_model = Kex_sim.Cost_model

let n = 4
let k = 2

(* Mean ns per acquire+release cycle with [domains] domains contending. *)
let acquire_ns ~domains ~seconds =
  let asg = Assignment.create ~algo:Kex_runtime.Kex_lock.Fast_path ~n ~k () in
  let until = Server_proc.now_ns () + int_of_float (seconds *. 1e9) in
  let spin pid () =
    let cycles = ref 0 in
    while Server_proc.now_ns () < until do
      for _ = 1 to 256 do
        let name = Assignment.acquire asg ~pid in
        Assignment.release asg ~pid ~name
      done;
      cycles := !cycles + 256
    done;
    !cycles
  in
  let t0 = Server_proc.now_ns () in
  let cycles = List.map Domain.join (List.init domains (fun pid -> Domain.spawn (spin pid))) in
  let elapsed = Server_proc.now_ns () - t0 in
  float (elapsed * domains) /. float (List.fold_left ( + ) 0 cycles)

type rrefs = { label : string; max_remote : int; bound : int }

(* Worst remote references of any acquisition at contention [c], and the
   paper's bound for it: Theorem 3 (CC) or 7 (DSM) from
   [Registry.bound], plus k for the Figure 7 renaming (Theorems 9 and 10). *)
let sim_rrefs ~label ~model ~c =
  let mem = Kex_sim.Memory.create () in
  let workload =
    Kexclusion.Protocol.named_workload (Registry.build_assignment mem ~model Registry.Fast_path ~n ~k)
  in
  let cfg = Kex_sim.Runner.config ~n ~k ~iterations:20 ~participants:(List.init c Fun.id) () in
  let res = Kex_sim.Runner.run cfg mem (Cost_model.create model ~n_procs:n) workload in
  if not res.Kex_sim.Runner.ok then failwith ("simulator run failed: " ^ label);
  let bound = Option.get (Registry.bound ~model Registry.Fast_path ~n ~k ~c) + k in
  { label; max_remote = (Kex_sim.Stats.summarize res).Kex_sim.Stats.max_remote; bound }

let sim_all () =
  [ sim_rrefs ~label:"sim.rrefs_cc_c2" ~model:Cost_model.Cache_coherent ~c:2;
    sim_rrefs ~label:"sim.rrefs_cc_c4" ~model:Cost_model.Cache_coherent ~c:4;
    sim_rrefs ~label:"sim.rrefs_dsm_c4" ~model:Cost_model.Distributed ~c:4 ]
