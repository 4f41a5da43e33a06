module Op = Kex_sim.Op
module Memory = Kex_sim.Memory
module Runner = Kex_sim.Runner
module Cost_model = Kex_sim.Cost_model
module Registry = Kexclusion.Registry
module Protocol = Kexclusion.Protocol

open Op

let meta_plain = { Registry.intended_spin = [] }

let with_payload mem (w : Runner.workload) =
  let payload = Memory.alloc mem ~label:Lint.payload_label ~init:0 1 in
  ( payload,
    { w with Runner.cs_body = Some (fun ~pid ~name:_ -> Op.write payload (pid + 1)) } )

(* The mutant blocks have no no-wait entry: a try refuses without a step. *)
let refuse ~pid:_ = return false

let subject ~name ~model ~n ~k ?(meta = meta_plain) make =
  { Lint.sub_name = name; sub_model = model; sub_n = n; sub_k = k; sub_meta = meta;
    sub_make = make; sub_name_cell = "fig7.X" }

(* ---- 1-3. Patches of the shipped figures (lib/figure_mutants). ------- *)
(* Run by the simulator in the patched text's own Figure 7 assignment;
   Figure 2's mutants are one block over a skip inner. *)
module Patched (F : Kexclusion.Figures.S with type 'a m = 'a Op.t and type ctx = Memory.t) =
struct
  let assignment ~name ~n ~k kex =
    subject ~name ~model:Cost_model.Cache_coherent ~n ~k (fun () ->
        let mem = Memory.create () in
        let { F.assignment_name; acquire; try_acquire; release } = F.assignment mem ~kex:(kex mem) ~k in
        let named = { Protocol.assignment_name; acquire; try_acquire; release } in
        let _payload, w = with_payload mem (Protocol.named_workload named) in
        (mem, w))

  let fig2_block ~name ~n ~k = assignment ~name ~n ~k (fun mem -> F.fig2 mem ~n ~k ~inner:(F.trivial ()))
  let inductive ~name ~n ~k = assignment ~name ~n ~k (fun mem -> F.inductive mem ~block:F.fig2 ~n ~k)
end

module Faithful = Patched (Kexclusion.Simulated)
module Sim = Kexclusion.Simulated.Mem
module No_release_write = Patched (Kex_figure_mutants.Fig2_no_release_write.Make (Sim))
module Off_by_one = Patched (Kex_figure_mutants.Fig2_off_by_one.Make (Sim))
module No_clear = Patched (Kex_figure_mutants.Fig7_no_clear.Make (Sim))

(* ---- 5. A waiter that re-announces itself inside its wait loop. ------- *)
(* Functionally it still waits for Q to change, but each iteration rewrites
   the announce cell, invalidating every other process's cached copy.  It is
   written out here rather than patched into figures.ml: the spin rewrites
   a cell inside the loop, which no [await] can express. *)
let fig2_write_in_loop mem ~k ~inner =
  let x = Memory.alloc mem ~label:"fig2.X" ~init:k 1 in
  let q = Memory.alloc mem ~label:"fig2.Q" ~init:0 1 in
  let announce = Memory.alloc mem ~label:"fig2.A" ~init:0 1 in
  let entry ~pid =
    let* () = inner.Protocol.entry ~pid in
    let* slots = faa x (-1) in
    if slots = 0 then
      let* () = write q pid in
      let* xv = read x in
      if xv < 0 then
        let rec spin () =
          (* BUG: refreshing the announcement every iteration *)
          let* () = write announce pid in
          let* v = read q in
          if v = pid then spin () else return ()
        in
        spin ()
      else return ()
    else return ()
  in
  let exit ~pid =
    let* _ = faa x 1 in
    let* () = write q pid in
    inner.Protocol.exit ~pid
  in
  { Protocol.name = Printf.sprintf "fig2-write-in-loop[k=%d]" k; entry; exit; try_entry = refuse }

let write_in_loop_subject ~name ~n ~k =
  subject ~name ~model:Cost_model.Cache_coherent ~n ~k (fun () ->
      let mem = Memory.create () in
      let kex = fig2_write_in_loop mem ~k ~inner:(Kexclusion.Simulated.trivial ()) in
      let named = Kexclusion.Simulated.assignment mem ~kex ~k in
      let _payload, w = with_payload mem (Protocol.named_workload named) in
      (mem, w))

(* ---- 4. A cache-coherent algorithm deployed on a DSM machine. --------- *)
(* Figure 2's spin on the unowned cell Q is local-spin under CC but remote
   on every iteration under DSM — the exact mismatch Figure 6 exists to
   fix. *)
let remote_spin_subject ~name ~n ~k =
  let model = Cost_model.Distributed in
  let make () =
    let mem = Memory.create () in
    let kex =
      Kexclusion.Simulated.inductive mem ~block:Kexclusion.Simulated.fig2 ~n ~k
    in
    let named = Kexclusion.Simulated.assignment mem ~kex ~k in
    let _payload, w = with_payload mem (Protocol.named_workload named) in
    (mem, w)
  in
  subject ~name ~model ~n ~k make

(* ---- 6. Bounded_faa with an impossible range. ------------------------- *)
let bfaa_stuck_subject ~name ~n ~k =
  let model = Cost_model.Cache_coherent in
  let make () =
    let mem = Memory.create () in
    let x = Memory.alloc mem ~label:"stuck.X" ~init:0 1 in
    let kex = Registry.build mem ~model Registry.Inductive ~n ~k in
    let named = Kexclusion.Simulated.assignment mem ~kex ~k in
    let acquire ~pid =
      (* BUG: |delta| = 2 can never fit in [0..1]; the add never applies *)
      let* _ = bounded_faa x (-2) ~lo:0 ~hi:1 in
      named.Protocol.acquire ~pid
    in
    let named = { named with Protocol.acquire } in
    let _payload, w = with_payload mem (Protocol.named_workload named) in
    (mem, w)
  in
  subject ~name ~model ~n ~k make

(* ---- 7. Entry section writing the protected payload cell. ------------- *)
let protected_write_subject ~name ~n ~k =
  let model = Cost_model.Cache_coherent in
  let make () =
    let mem = Memory.create () in
    let named = Registry.build_assignment mem ~model Registry.Inductive ~n ~k in
    let payload, w = with_payload mem (Protocol.named_workload named) in
    let acquire ~pid =
      (* BUG: scribbles on the protected cell before holding the CS *)
      let* () = write payload (100 + pid) in
      w.Runner.acquire ~pid
    in
    (mem, { w with Runner.acquire })
  in
  subject ~name ~model ~n ~k make

(* The corpus runs at n = 5, k = 2, except the lone Figure 2 blocks: one
   block admits at most k + 1 contenders (Theorem 1's basis), and beyond
   that even the unmutated block breaks k-exclusion, so a kill there would
   prove nothing.  [fig2_block] is that unmutated control. *)
let n = 5 and k = 2
let block_n = k + 1
let fig2_block = Faithful.fig2_block ~name:"fig2-block" ~n:block_n ~k

let mutant m_name m_desc m_expected subject =
  let sub = subject ~name:m_name in
  { Finding.m_name; m_desc; m_expected; m_run = (fun () -> Lint.analyze sub) }

let all =
  [ mutant "cc-no-release-write"
      "Figure 2 exit omits the statement-7 wakeup write; waiters starve" Finding.S_stall
      (No_release_write.fig2_block ~n:block_n ~k);
    mutant "cc-off-by-one" "Figure 2 slot counter initialised to k+1; k+1 processes enter"
      Finding.S_monitor (Off_by_one.fig2_block ~n:block_n ~k);
    mutant "renaming-skip-clear" "Figure 7 release never clears the name bit"
      Finding.L3_name_leak (No_clear.inductive ~n ~k);
    mutant "cc-block-on-dsm" "Figure 2 (cache-coherent spin) deployed on a DSM machine"
      Finding.L1_remote_spin (remote_spin_subject ~n ~k);
    mutant "cc-write-in-wait-loop" "waiter rewrites an announce cell inside its wait loop"
      Finding.L2_invalidation_in_loop (write_in_loop_subject ~n:block_n ~k);
    mutant "bounded-faa-stuck" "Bounded_faa delta exceeds its range width; the add never applies"
      Finding.L4_bfaa_range (bfaa_stuck_subject ~n ~k);
    mutant "payload-write-outside-cs" "entry section writes the protected payload cell"
      Finding.S_protected_write (protected_write_subject ~n ~k) ]
