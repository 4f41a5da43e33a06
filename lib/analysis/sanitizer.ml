module Op = Kex_sim.Op
module Memory = Kex_sim.Memory
module Runner = Kex_sim.Runner
module Monitor = Kex_sim.Monitor

type cfg = {
  protected : string list;
  intended_spin : string list;
  spin_threshold : int;
}

let default_threshold = 8

let config ?(spin_threshold = default_threshold) ~protected ~intended_spin () =
  { protected; intended_spin; spin_threshold }

type watch = { mutable w_addr : Op.addr; mutable w_count : int }

type t = {
  cfg : cfg;
  mem : Memory.t;
  watches : (int, watch) Hashtbl.t;
  reported : (string, unit) Hashtbl.t;  (* dedup key -> () *)
  mutable findings : Finding.t list;
  mutable step_clock : int;
}

let create mem cfg =
  { cfg; mem; watches = Hashtbl.create 16; reported = Hashtbl.create 16; findings = []; step_clock = 0 }

let findings t = List.rev t.findings

let label_matches prefixes = function
  | None -> false
  | Some l -> List.exists (fun p -> String.length p <= String.length l && String.sub l 0 (String.length p) = p) prefixes

let report t ~check ~site ~pid ~detail ~waived ~witness =
  let key = Finding.id check ^ "|" ^ site ^ "|" ^ string_of_int pid in
  if not (Hashtbl.mem t.reported key) then begin
    Hashtbl.add t.reported key ();
    t.findings <-
      { Finding.check; site; pid = Some pid; detail; waived; witness } :: t.findings
  end

let site_of t a = Format.asprintf "%a" (Memory.pp_addr t.mem) a

(* Pure helper for the model-checker hunt test (the simulator's Monitor
   checks names in every run): given the (pid, name) pairs currently holding
   names, report the first discipline breach. *)
let check_unique_names ~k holders =
  let rec go seen = function
    | [] -> None
    | (pid, nm) :: rest ->
        if nm < 0 || nm >= k then
          Some (Printf.sprintf "pid %d holds out-of-range name %d (k = %d)" pid nm k)
        else (
          match List.assoc_opt nm seen with
          | Some other ->
              Some (Printf.sprintf "name %d held by both pid %d and pid %d" nm other pid)
          | None -> go ((nm, pid) :: seen) rest)
  in
  go [] holders

let step_writes (s : Op.step) ~(value : Op.value) ~(footprint : Op.Footprint.t option) =
  match s with
  | Op.Read _ | Op.Delay _ -> []
  | Op.Write (a, _) | Op.Faa (a, _) | Op.Bounded_faa (a, _, _, _) | Op.Tas a
  | Op.Swap (a, _) ->
      [ a ]
  | Op.Cas (a, _, _) -> if value = 1 then [ a ] else []
  | Op.Atomic_block _ -> (
      match footprint with None -> [] | Some fp -> Op.Footprint.writes fp)

let on_step t ~pid ~step ~value ~remote ~(phase : Monitor.phase) ~footprint =
  t.step_clock <- t.step_clock + 1;
  (* Protected cells: only a process inside its critical section may write. *)
  (match phase with
  | Monitor.Critical -> ()
  | _ ->
      List.iter
        (fun a ->
          if label_matches t.cfg.protected (Memory.label t.mem a) then
            report t ~check:Finding.S_protected_write ~site:(site_of t a) ~pid
              ~detail:
                (Format.asprintf "write outside critical section (phase %a)"
                   Monitor.pp_phase phase)
              ~waived:false ~witness:[])
        (step_writes step ~value ~footprint));
  (* Remote-spin watchdog: consecutive charged-remote plain reads of one
     cell.  Cache-coherent spins go local after the first read and correct
     DSM algorithms spin on owned cells, so a sustained streak means the
     process is burning remote references while waiting. *)
  let w =
    match Hashtbl.find_opt t.watches pid with
    | Some w -> w
    | None ->
        let w = { w_addr = -1; w_count = 0 } in
        Hashtbl.add t.watches pid w;
        w
  in
  match step with
  | Op.Read a when remote > 0 ->
      if w.w_addr = a then w.w_count <- w.w_count + 1
      else begin
        w.w_addr <- a;
        w.w_count <- 1
      end;
      if w.w_count >= t.cfg.spin_threshold then begin
        let lbl = Memory.label t.mem a in
        report t ~check:Finding.S_spin_watchdog ~site:(site_of t a) ~pid
          ~detail:
            (Printf.sprintf "%d consecutive charged-remote reads of the same cell"
               w.w_count)
          ~waived:(label_matches t.cfg.intended_spin lbl)
          ~witness:
            [ Printf.sprintf "step %d: pid %d still re-reading %s remotely" t.step_clock
                pid (site_of t a) ];
        w.w_count <- 0 (* re-arm; report at most once per streak *)
      end
  | _ ->
      w.w_addr <- -1;
      w.w_count <- 0

let on_crash t ~pid = Hashtbl.remove t.watches pid

let hooks t : Runner.hooks =
  { Runner.h_step =
      (fun ~pid ~step ~value ~remote ~phase ~footprint ->
        on_step t ~pid ~step ~value ~remote ~phase ~footprint);
    h_event = (fun ~pid:_ _ -> ());
    h_crash = (fun ~pid -> on_crash t ~pid) }
