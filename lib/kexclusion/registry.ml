open Import

type algo = Queue | Bakery | Inductive | Tree | Fast_path | Graceful

let all = [ Queue; Bakery; Inductive; Tree; Fast_path; Graceful ]

let algo_name = function
  | Queue -> "queue"
  | Bakery -> "bakery"
  | Inductive -> "inductive"
  | Tree -> "tree"
  | Fast_path -> "fastpath"
  | Graceful -> "graceful"

let algo_of_string s =
  List.find_opt (fun a -> String.equal (algo_name a) (String.lowercase_ascii s)) all

let block_for = function
  | Cost_model.Cache_coherent -> Simulated.fig2
  | Cost_model.Distributed -> Simulated.fig6

type lint_meta = { intended_spin : string list }

(* Queue and bakery are the paper's Table 1 baselines whose per-acquisition
   remote-reference count is unbounded under contention: their busy-wait
   sites are declared so the analyzer reports them as intended (waived)
   rather than as discipline violations.  The four local-spin constructions
   declare nothing — every spin they perform must satisfy the paper's rule
   on its own. *)
let lint_meta = function
  | Queue -> { intended_spin = [ "fig1.head"; "fig1.tail"; "fig1.slots" ] }
  | Bakery -> { intended_spin = [ "bakery.choosing"; "bakery.number" ] }
  | Inductive | Tree | Fast_path | Graceful -> { intended_spin = [] }

let build mem ~model algo ~n ~k =
  if n < 1 then invalid_arg "Registry.build: n must be positive";
  if k < 1 then invalid_arg "Registry.build: k must be positive";
  let block = block_for model in
  match algo with
  | Queue -> Queue_kex.create mem ~n ~k
  | Bakery -> Baseline_bakery.create mem ~n ~k
  | Inductive -> Simulated.inductive mem ~block ~n ~k
  | Tree -> Simulated.tree mem ~block ~n ~k
  | Fast_path -> Simulated.fast_path_tree mem ~block ~n ~k
  | Graceful -> Simulated.graceful mem ~block ~n ~k

let build_assignment mem ~model algo ~n ~k =
  let kex = build mem ~model algo ~n ~k in
  Simulated.assignment mem ~kex ~k

let bound ~model algo ~n ~k ~c =
  let low_contention = c <= k in
  match (model, algo) with
  | _, (Queue | Bakery) -> None
  | Cost_model.Cache_coherent, Inductive -> Some (Spec.thm1 ~n ~k)
  | Cost_model.Cache_coherent, Tree -> Some (Spec.thm2 ~n ~k)
  | Cost_model.Cache_coherent, Fast_path ->
      Some (if low_contention then Spec.thm3_low ~k else Spec.thm3_high ~n ~k)
  | Cost_model.Cache_coherent, Graceful -> Some (Spec.thm4 ~k ~c)
  | Cost_model.Distributed, Inductive -> Some (Spec.thm5 ~n ~k)
  | Cost_model.Distributed, Tree -> Some (Spec.thm6 ~n ~k)
  | Cost_model.Distributed, Fast_path ->
      Some (if low_contention then Spec.thm7_low ~k else Spec.thm7_high ~n ~k)
  | Cost_model.Distributed, Graceful -> Some (Spec.thm8 ~k ~c)
