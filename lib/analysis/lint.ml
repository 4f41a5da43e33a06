module Op = Kex_sim.Op
module Memory = Kex_sim.Memory
module Runner = Kex_sim.Runner
module Scheduler = Kex_sim.Scheduler
module Cost_model = Kex_sim.Cost_model
module Registry = Kexclusion.Registry
module Protocol = Kexclusion.Protocol

type subject = {
  sub_name : string;
  sub_model : Cost_model.model;
  sub_n : int;
  sub_k : int;
  sub_meta : Registry.lint_meta;
  sub_make : unit -> Memory.t * Runner.workload;
  sub_name_cell : string;
}

let payload_label = "cs.payload"

(* The per-process program the static layer analyzes: one full
   noncritical -> entry -> critical -> exit cycle, exactly the shape
   [Runner.driver] executes (minus dwell delays, which touch no memory). *)
let program_of_workload (w : Runner.workload) ~pid : unit Op.t =
  let open Op in
  let* () = mark Entry_begin in
  let* name = w.Runner.acquire ~pid in
  let* () = mark (Cs_enter name) in
  let* () = match w.Runner.cs_body with Some f -> f ~pid ~name | None -> return () in
  let* () = mark Cs_exit in
  let* () = w.Runner.release ~pid ~name in
  mark Exit_end

let subject_of_algo ~model ~algo ~n ~k =
  let meta = Registry.lint_meta algo in
  let make () =
    let mem = Memory.create () in
    let named = Registry.build_assignment mem ~model algo ~n ~k in
    let payload = Memory.alloc mem ~label:payload_label ~init:0 1 in
    let w = Protocol.named_workload named in
    let w =
      { w with Runner.cs_body = Some (fun ~pid ~name:_ -> Op.write payload (pid + 1)) }
    in
    (mem, w)
  in
  { sub_name = Registry.algo_name algo;
    sub_model = model;
    sub_n = n;
    sub_k = k;
    sub_meta = meta;
    sub_make = make;
    sub_name_cell = "fig7.X" }

(* ------------------------------------------------------------------ *)
(* Static passes over the CFG.                                         *)

let starts_with ~prefix s =
  String.length prefix <= String.length s && String.sub s 0 (String.length prefix) = prefix

let label_waived meta = function
  | None -> false
  | Some (l, _) -> List.exists (fun p -> starts_with ~prefix:p l) meta.Registry.intended_spin

module Int_set = Set.Make (Int)

let loop_witness cfg comp =
  let cap = 12 in
  let shown = List.filteri (fun i _ -> i < cap) comp in
  List.map (fun i -> Printf.sprintf "node %d: %s" i (Op_cfg.describe cfg i)) shown
  @ if List.length comp > cap then [ Printf.sprintf "... (%d loop nodes)" (List.length comp) ] else []

(* L1 / L2: spin-loop discipline.  Every CFG cycle is a potential busy-wait;
   the paper's local-spin rule says iterating it must generate no remote
   references.  Under DSM that means every cell touched in the cycle is
   owned by the spinning process; under CC it means no writes and no
   read-modify-writes (either would invalidate or stay remote on every
   iteration — a plain read is cached after the first). *)
let lint_loops sub ~pid (cfg : Op_cfg.t) =
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let add check ~site ~region ~detail ~witness =
    let key = Finding.id check ^ "|" ^ site in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      findings :=
        { Finding.check; site; pid = Some pid; detail;
          waived = label_waived sub.sub_meta region; witness }
        :: !findings
    end
  in
  List.iter
    (fun comp ->
      let witness = loop_witness cfg comp in
      List.iter
        (fun i ->
          match (Op_cfg.node cfg i).Op_cfg.shape with
          | Op_cfg.Halt | Op_cfg.Event _ -> ()
          | Op_cfg.Access { accs; _ } ->
              List.iter
                (fun (a : Op_cfg.acc) ->
                  match sub.sub_model with
                  | Cost_model.Distributed ->
                      if a.Op_cfg.a_owner <> Some pid then
                        add Finding.L1_remote_spin ~site:a.Op_cfg.a_site
                          ~region:a.Op_cfg.a_region
                          ~detail:
                            (Printf.sprintf
                               "busy-wait loop accesses %s, which pid %d does not own \
                                (owner %s): every iteration is a remote reference"
                               a.Op_cfg.a_site pid
                               (match a.Op_cfg.a_owner with
                               | Some o -> "pid " ^ string_of_int o
                               | None -> "none"))
                          ~witness
                  | Cost_model.Cache_coherent ->
                      if a.Op_cfg.a_rmw then
                        add Finding.L1_remote_spin ~site:a.Op_cfg.a_site
                          ~region:a.Op_cfg.a_region
                          ~detail:
                            (Printf.sprintf
                               "busy-wait loop performs a read-modify-write on %s: \
                                remote on every iteration under cache coherence"
                               a.Op_cfg.a_site)
                          ~witness
                      else if a.Op_cfg.a_write then
                        add Finding.L2_invalidation_in_loop ~site:a.Op_cfg.a_site
                          ~region:a.Op_cfg.a_region
                          ~detail:
                            (Printf.sprintf
                               "busy-wait loop writes %s: each iteration invalidates \
                                every other process's cached copy"
                               a.Op_cfg.a_site)
                          ~witness)
                accs)
        comp)
    (Op_cfg.loops cfg);
  List.rev !findings

(* L3: name leak.  From a critical section holding name [m] (m < k-1; the
   last name has no bit), some path must not terminate without writing 0 to
   the renaming bit fig7.X[m]. *)
let releases_bit sub m (nd : Op_cfg.node) =
  match nd.Op_cfg.shape with
  | Op_cfg.Access { accs; _ } ->
      List.exists
        (fun (a : Op_cfg.acc) ->
          a.Op_cfg.a_write
          && (match a.Op_cfg.a_region with
             | Some (l, off) -> String.equal l sub.sub_name_cell && off = m
             | None -> false)
          && match a.Op_cfg.a_value with Some 0 -> true | Some _ -> false | None -> true)
        accs
  | _ -> false

let lint_name_leak sub ~pid (cfg : Op_cfg.t) =
  let findings = ref [] in
  Array.iter
    (fun (nd : Op_cfg.node) ->
      match nd.Op_cfg.shape with
      | Op_cfg.Event (Op.Cs_enter m) when m >= 0 && m < sub.sub_k - 1 -> (
          match
            Op_cfg.reaches_halt_avoiding cfg ~start:nd.Op_cfg.id
              ~blocked:(releases_bit sub m)
          with
          | None -> ()
          | Some path ->
              let witness =
                List.map
                  (fun i -> Printf.sprintf "node %d: %s" i (Op_cfg.describe cfg i))
                  path
              in
              findings :=
                { Finding.check = Finding.L3_name_leak;
                  site = Printf.sprintf "%s[%d]" sub.sub_name_cell m;
                  pid = Some pid;
                  detail =
                    Printf.sprintf
                      "a path from the critical section (holding name %d) reaches \
                       termination without ever writing 0 to %s[%d]: the name is \
                       never released"
                      m sub.sub_name_cell m;
                  waived = false;
                  witness }
                :: !findings)
      | _ -> ())
    cfg.Op_cfg.nodes;
  (* One finding per leaked name suffices. *)
  let seen = Hashtbl.create 4 in
  List.rev !findings
  |> List.filter (fun f ->
         if Hashtbl.mem seen f.Finding.site then false
         else begin
           Hashtbl.add seen f.Finding.site ();
           true
         end)

(* L4: Bounded_faa bounds that make the primitive a no-op or permanently
   stuck (footnote 2 of the paper assumes |delta| steps fit the range). *)
let lint_bfaa ~pid (cfg : Op_cfg.t) =
  let findings = ref [] in
  let seen = Hashtbl.create 4 in
  Array.iter
    (fun (nd : Op_cfg.node) ->
      match nd.Op_cfg.shape with
      | Op_cfg.Access { bfaa = Some (d, lo, hi); pp; accs } ->
          let site =
            match accs with a :: _ -> a.Op_cfg.a_site | [] -> pp
          in
          let problem =
            if lo > hi then Some (Printf.sprintf "empty range [%d..%d]" lo hi)
            else if d = 0 then Some "zero delta: the operation can never change the cell"
            else if abs d > hi - lo then
              Some
                (Printf.sprintf
                   "|delta| = %d exceeds the range width %d: the add can never apply"
                   (abs d) (hi - lo))
            else None
          in
          (match problem with
          | Some detail when not (Hashtbl.mem seen site) ->
              Hashtbl.add seen site ();
              findings :=
                { Finding.check = Finding.L4_bfaa_range; site; pid = Some pid;
                  detail = Printf.sprintf "%s: %s" pp detail; waived = false;
                  witness = [] }
                :: !findings
          | _ -> ())
      | _ -> ())
    cfg.Op_cfg.nodes;
  List.rev !findings

let static_findings ?(pids = None) sub =
  let pids =
    match pids with Some ps -> ps | None -> [ 0; max 0 (sub.sub_n - 1) ]
  in
  let pids = List.sort_uniq compare pids in
  List.concat_map
    (fun pid ->
      let make () =
        let mem, w = sub.sub_make () in
        (mem, program_of_workload w ~pid)
      in
      let cfg = Op_cfg.build ~make () in
      let incomplete =
        if cfg.Op_cfg.complete then []
        else
          [ { Finding.check = Finding.A_incomplete;
              site = "cfg";
              pid = Some pid;
              detail =
                Printf.sprintf
                  "exploration capped at %d nodes%s: lint results are a lower bound"
                  (Op_cfg.n_nodes cfg)
                  (if cfg.Op_cfg.max_depth_hit then " (depth cap hit)" else "");
              waived = false;
              witness = [] } ]
      in
      lint_loops sub ~pid cfg @ lint_name_leak sub ~pid cfg @ lint_bfaa ~pid cfg
      @ incomplete)
    pids

(* Findings are per-(check, site); two pids flagging the same site would
   duplicate them, so collapse across pids. *)
let dedup_findings fs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun f ->
      let key = Finding.id f.Finding.check ^ "|" ^ f.Finding.site in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    fs

(* ------------------------------------------------------------------ *)
(* Dynamic layer: run the workload under the sanitizer.                *)

let dynamic_findings ?(spin_threshold = Sanitizer.default_threshold) sub =
  let schedulers =
    [ ("round-robin", fun () -> Scheduler.round_robin ());
      ("random:7", fun () -> Scheduler.random ~seed:7);
      ("burst:23", fun () -> Scheduler.burst ~seed:23 ~max_burst:6) ]
  in
  List.concat_map
    (fun (sched_name, sched) ->
      let mem, w = sub.sub_make () in
      let san =
        Sanitizer.create mem
          (Sanitizer.config ~spin_threshold ~k:sub.sub_k
             ~protected:[ payload_label ]
             ~intended_spin:sub.sub_meta.Registry.intended_spin ())
      in
      let cfgr =
        Runner.config ~iterations:3 ~cs_delay:2 ~scheduler:(sched ())
          ~hooks:(Sanitizer.hooks san) ~n:sub.sub_n ~k:sub.sub_k ()
      in
      let cm = Cost_model.create sub.sub_model ~n_procs:sub.sub_n in
      let res = Runner.run cfgr mem cm w in
      let stall =
        if res.Runner.stalled then
          [ { Finding.check = Finding.S_stall;
              site = "run:" ^ sched_name;
              pid = None;
              detail =
                Printf.sprintf
                  "step budget exhausted after %d steps under the %s scheduler: some \
                   process can no longer make progress"
                  res.Runner.total_steps sched_name;
              waived = false;
              witness = [] } ]
        else []
      in
      let monitor =
        List.map
          (fun v ->
            { Finding.check = Finding.S_monitor;
              site = "run:" ^ sched_name;
              pid = None;
              detail = v;
              waived = false;
              witness = [] })
          res.Runner.violations
      in
      Sanitizer.findings san @ stall @ monitor)
    schedulers
  |> dedup_findings

(* ------------------------------------------------------------------ *)

type report = {
  r_subject : subject;
  r_findings : Finding.t list;
  r_static : int;
  r_dynamic : int;
}

let analyze ?static_only sub =
  let st = dedup_findings (static_findings sub) in
  let dy = match static_only with Some true -> [] | _ -> dynamic_findings sub in
  { r_subject = sub; r_findings = st @ dy; r_static = List.length st;
    r_dynamic = List.length dy }

let violations r = List.filter (fun f -> not f.Finding.waived) r.r_findings
let clean r = violations r = []
