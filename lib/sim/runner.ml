type workload = {
  acquire : pid:int -> int Op.t;
  release : pid:int -> name:int -> unit Op.t;
  check_names : bool;
  cs_body : (pid:int -> name:int -> unit Op.t) option;
}

let plain_workload ~acquire ~release ~check_names = { acquire; release; check_names; cs_body = None }

type hooks = {
  h_step :
    pid:int ->
    step:Op.step ->
    value:Op.value ->
    remote:int ->
    phase:Monitor.phase ->
    footprint:Op.Footprint.t option ->
    unit;
  h_event : pid:int -> Op.event -> unit;
  h_crash : pid:int -> unit;
}

type config = {
  n : int;
  k : int;
  iterations : int;
  cs_delay : int;
  noncrit_delay : int;
  scheduler : Scheduler.t;
  failures : Failures.plan;
  participants : int list option;
  step_budget : int;
  hooks : hooks option;
}

let config ?(iterations = 3) ?(cs_delay = 2) ?(noncrit_delay = 0) ?scheduler ?(failures = [])
    ?participants ?(step_budget = 0) ?hooks ~n ~k () =
  let scheduler = match scheduler with Some s -> s | None -> Scheduler.round_robin () in
  { n; k; iterations; cs_delay; noncrit_delay; scheduler; failures; participants; step_budget;
    hooks }

type proc_stats = {
  participated : bool;
  completed : bool;
  faulty : bool;
  acquisitions : int;
  remote_per_acq : int array;
  total_remote : int;
  total_local : int;
  steps : int;
}

type result = {
  ok : bool;
  violations : string list;
  stalled : bool;
  total_steps : int;
  max_in_cs : int;
  max_contention : int;
  procs : proc_stats array;
}

let exec_step mem (s : Op.step) : Op.value =
  match s with
  | Read a -> Memory.get mem a
  | Write (a, v) ->
      Memory.set mem a v;
      0
  | Faa (a, d) ->
      let old = Memory.get mem a in
      Memory.set mem a (old + d);
      old
  | Bounded_faa (a, d, lo, hi) ->
      let old = Memory.get mem a in
      let v = old + d in
      if v >= lo && v <= hi then Memory.set mem a v;
      old
  | Cas (a, expected, desired) ->
      if Memory.get mem a = expected then begin
        Memory.set mem a desired;
        1
      end
      else 0
  | Tas a ->
      let old = Memory.get mem a in
      Memory.set mem a 1;
      old
  | Swap (a, v) ->
      let old = Memory.get mem a in
      Memory.set mem a v;
      old
  | Delay _ -> 0
  | Atomic_block (_, f) -> f ~read:(Memory.get mem) ~write:(Memory.set mem)

type pstate = {
  mutable prog : unit Op.t;
  mutable finished : bool;
  mutable failed : bool;
  mutable steps : int;
  mutable steps_in_phase : int;
  mutable remote : int;
  mutable local : int;
  mutable acq_remote : int;
  mutable acq_list : int list;  (* reversed *)
  participated : bool;
}

let driver cfg wl ~pid : unit Op.t =
  let open Op in
  let rec iter i =
    if i >= cfg.iterations then return ()
    else
      let* () = delay cfg.noncrit_delay in
      let* () = mark Entry_begin in
      let* name = wl.acquire ~pid in
      let* () = mark (Cs_enter name) in
      let* () = delay cfg.cs_delay in
      let* () = (match wl.cs_body with Some body -> body ~pid ~name | None -> return ()) in
      let* () = mark Cs_exit in
      let* () = wl.release ~pid ~name in
      let* () = mark Exit_end in
      iter (i + 1)
  in
  iter 0

let run cfg mem cost wl =
  let monitor = Monitor.create ~n:cfg.n ~k:cfg.k ~check_names:wl.check_names in
  let failures = Failures.create cfg.failures in
  let is_participant =
    match cfg.participants with
    | None -> fun _ -> true
    | Some ps -> fun pid -> List.mem pid ps
  in
  let procs =
    Array.init cfg.n (fun pid ->
        let participated = is_participant pid in
        { prog = (if participated then driver cfg wl ~pid else Op.return ());
          finished = not participated;
          failed = false;
          steps = 0; steps_in_phase = 0;
          remote = 0; local = 0;
          acq_remote = 0; acq_list = [];
          participated })
  in
  let budget =
    if cfg.step_budget > 0 then cfg.step_budget
    else
      (* Generous default: per-acquisition protocol work plus every other
         process spinning through this one's critical-section dwell. *)
      10_000
      + (cfg.iterations * cfg.n * (500 + (50 * cfg.n)))
      + (cfg.iterations * cfg.n * (cfg.cs_delay + cfg.noncrit_delay) * (cfg.n + 2))
  in
  (* The runnable set is a reusable sorted array + bitmap (see Runnable):
     rebuilt in place only when a process finishes or crashes, never
     reallocated per step. *)
  let runnable = Runnable.create () in
  let dirty = ref true in
  let refresh () =
    if !dirty then begin
      Runnable.clear runnable;
      for pid = 0 to cfg.n - 1 do
        if (not procs.(pid).finished) && not procs.(pid).failed then Runnable.add runnable pid
      done;
      dirty := false
    end
  in
  let on_event ps pid e =
    Monitor.on_event monitor ~pid e;
    (match cfg.hooks with Some h -> h.h_event ~pid e | None -> ());
    match (e : Op.event) with
    | Entry_begin | Cs_enter _ | Cs_exit -> ps.steps_in_phase <- 0
    | Exit_end ->
        ps.steps_in_phase <- 0;
        ps.acq_list <- ps.acq_remote :: ps.acq_list;
        ps.acq_remote <- 0
    | Note _ -> ()
  in
  let rec flush ps pid =
    match ps.prog with
    | Op.Mark (e, k) ->
        on_event ps pid e;
        ps.prog <- k ();
        flush ps pid
    | Op.Return () -> if not ps.finished then begin ps.finished <- true; dirty := true end
    | Op.Step _ -> ()
  in
  let total_steps = ref 0 in
  let stalled = ref false in
  let running = ref true in
  let no_failures = Failures.is_empty failures in
  (* Per-step bookkeeping, shared by the common single-cell path and the
     atomic-block path.  A plain call with unboxed arguments: the hot loop
     allocates nothing of its own beyond the program's continuations. *)
  let account ps pid phase_now s k v n_remote n_local footprint =
    ps.steps <- ps.steps + 1;
    ps.steps_in_phase <- ps.steps_in_phase + 1;
    ps.remote <- ps.remote + n_remote;
    ps.local <- ps.local + n_local;
    if n_remote > 0 && phase_now <> Monitor.Noncrit then
      ps.acq_remote <- ps.acq_remote + n_remote;
    (match cfg.hooks with
    | Some h -> h.h_step ~pid ~step:s ~value:v ~remote:n_remote ~phase:phase_now ~footprint
    | None -> ());
    (* A counted delay occupies one scheduling turn per unit: re-emit the
       remainder so other processes interleave exactly as they would
       through a chain of unit delays. *)
    match s with
    | Op.Delay n when n > 1 -> ps.prog <- Op.Step (Op.Delay (n - 1), k)
    | _ -> ps.prog <- k v
  in
  while !running do
    refresh ();
    match Scheduler.next cfg.scheduler ~runnable with
    | None -> running := false
    | Some pid ->
        let ps = procs.(pid) in
        flush ps pid;
        if ps.finished then ()
        else if
          (not no_failures)
          && Failures.should_fail failures ~pid ~steps_taken:ps.steps
               ~phase:(Monitor.phase monitor ~pid)
               ~acquisition:(Monitor.acquisitions monitor ~pid)
               ~steps_in_phase:ps.steps_in_phase
        then begin
          ps.failed <- true;
          Monitor.on_crash monitor ~pid;
          (match cfg.hooks with Some h -> h.h_crash ~pid | None -> ());
          dirty := true
        end
        else begin
          (match ps.prog with
          | Op.Step (s, k) ->
              let phase_now = Monitor.phase monitor ~pid in
              (match s with
              | Op.Atomic_block (_, f) ->
                  (* Record the block's exact footprint while executing it,
                     then charge per cell — not a flat single remote. *)
                  let fp = Op.Footprint.create () in
                  let read a =
                    Op.Footprint.record_read fp a;
                    Memory.get mem a
                  in
                  let write a v =
                    Op.Footprint.record_write fp a;
                    Memory.set mem a v
                  in
                  let v = f ~read ~write in
                  let c = Cost_model.charge_block cost mem ~pid fp in
                  account ps pid phase_now s k v c.Cost_model.block_remote
                    c.Cost_model.block_local (Some fp)
              | _ -> (
                  let kind = Cost_model.charge cost mem ~pid s in
                  let v = exec_step mem s in
                  match kind with
                  | Cost_model.Remote -> account ps pid phase_now s k v 1 0 None
                  | Cost_model.Local -> account ps pid phase_now s k v 0 1 None));
              flush ps pid
          | Op.Return () | Op.Mark _ -> assert false);
          incr total_steps;
          if !total_steps >= budget then begin
            stalled := true;
            running := false
          end
        end
  done;
  let procs_stats =
    Array.map
      (fun ps ->
        { participated = ps.participated;
          completed = ps.finished && ps.participated;
          faulty = ps.failed;
          acquisitions = List.length ps.acq_list;
          remote_per_acq = Array.of_list (List.rev ps.acq_list);
          total_remote = ps.remote;
          total_local = ps.local;
          steps = ps.steps })
      procs
  in
  let violations = Monitor.violations monitor in
  let all_done =
    Array.for_all
      (fun (p : proc_stats) -> (not p.participated) || p.completed || p.faulty)
      procs_stats
  in
  { ok = violations = [] && (not !stalled) && all_done;
    violations;
    stalled = !stalled;
    total_steps = !total_steps;
    max_in_cs = Monitor.max_in_cs monitor;
    max_contention = Monitor.max_contention monitor;
    procs = procs_stats }
