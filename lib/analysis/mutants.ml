module Op = Kex_sim.Op
module Memory = Kex_sim.Memory
module Runner = Kex_sim.Runner
module Cost_model = Kex_sim.Cost_model
module Registry = Kexclusion.Registry
module Protocol = Kexclusion.Protocol

open Op

type t = {
  m_name : string;
  m_desc : string;
  m_subject : Lint.subject;
  m_expected : Finding.check;
}

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

let write_in_loop_subject ~n ~k =
  subject ~name:"cc-write-in-wait-loop" ~model:Cost_model.Cache_coherent ~n ~k (fun () ->
      let mem = Memory.create () in
      let kex = fig2_write_in_loop mem ~k ~inner:(Kexclusion.Simulated.trivial ()) in
      let named = Kexclusion.Simulated.assignment mem ~kex ~k in
      let _payload, w = with_payload mem (Protocol.named_workload named) in
      (mem, w))

(* ---- 4. A cache-coherent algorithm deployed on a DSM machine. --------- *)
(* Figure 2's spin on the unowned cell Q is local-spin under CC but remote
   on every iteration under DSM — the exact mismatch Figure 6 exists to
   fix. *)
let remote_spin_subject ~n ~k =
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
  subject ~name:"cc-block-on-dsm" ~model ~n ~k make

(* ---- 6. Bounded_faa with an impossible range. ------------------------- *)
let bfaa_stuck_subject ~n ~k =
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
  subject ~name:"bounded-faa-stuck" ~model ~n ~k make

(* ---- 7. Entry section writing the protected payload cell. ------------- *)
let protected_write_subject ~n ~k =
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
  subject ~name:"payload-write-outside-cs" ~model ~n ~k make

let all =
  let n = 5 and k = 2 in
  [ { m_name = "cc-no-release-write";
      m_desc = "Figure 2 exit omits the statement-7 wakeup write; waiters starve";
      m_subject = No_release_write.fig2_block ~name:"cc-no-release-write" ~n ~k;
      m_expected = Finding.S_stall };
    { m_name = "cc-off-by-one";
      m_desc = "Figure 2 slot counter initialised to k+1; k+1 processes enter";
      m_subject = Off_by_one.fig2_block ~name:"cc-off-by-one" ~n ~k;
      m_expected = Finding.S_kexclusion };
    { m_name = "renaming-skip-clear";
      m_desc = "Figure 7 release never clears the name bit";
      m_subject = No_clear.inductive ~name:"renaming-skip-clear" ~n ~k;
      m_expected = Finding.L3_name_leak };
    { m_name = "cc-block-on-dsm";
      m_desc = "Figure 2 (cache-coherent spin) deployed on a DSM machine";
      m_subject = remote_spin_subject ~n ~k;
      m_expected = Finding.L1_remote_spin };
    { m_name = "cc-write-in-wait-loop";
      m_desc = "waiter rewrites an announce cell inside its wait loop";
      m_subject = write_in_loop_subject ~n ~k;
      m_expected = Finding.L2_invalidation_in_loop };
    { m_name = "bounded-faa-stuck";
      m_desc = "Bounded_faa delta exceeds its range width; the add never applies";
      m_subject = bfaa_stuck_subject ~n ~k;
      m_expected = Finding.L4_bfaa_range };
    { m_name = "payload-write-outside-cs";
      m_desc = "entry section writes the protected payload cell";
      m_subject = protected_write_subject ~n ~k;
      m_expected = Finding.S_protected_write } ]

let find name = List.find_opt (fun m -> String.equal m.m_name name) all
