(* kexbench: the end-to-end benchmark for [kexd serve].

     kexbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                  [--kexd PATH] [--json FILE] [--spans FILE] [--smoke]
     kexbench trace [--workload NAME] [--seed N] [--spans FILE] [--smoke]
     kexbench compare A.json B.json [--benchmark FILE]

   [run] measures each workload against [kexd serve] child processes: set
   up (spawn until listening, plus preloading the key space over the wire),
   warm up, measure, and report every end-to-end metric as the median over
   the measurement windows.  With [--workload] the last line of stdout is
   one JSON object (correct, attempted, failed, metrics); with [--trace 1]
   its metrics are the per-layer ones: STATS counter deltas and CPU from
   the same servers, plus the in-process replay and probes of [trace].
   Progress and tables go to stderr.  Any oracle mismatch makes the run
   incorrect and exit 1. *)

module Protocol = Kex_service.Protocol
module Json = Kex_service.Json

let now_ns = Server_proc.now_ns
let secs_since t0 = float (now_ns () - t0) /. 1e9
(* Progress goes to stderr; the smoke run keeps it quiet unless something
   fails. *)
let verbose = ref true
let log fmt = Printf.ksprintf (fun s -> if !verbose then prerr_endline s) fmt
let say fmt = Printf.ksprintf prerr_endline fmt

type settings = {
  seed : int;
  seconds : float;
  smoke : bool;
  kexd : string;
  spans : string option;
}

(* How a run is laid out.  The measured time is split over [sessions]
   servers, each set up afresh, warmed up for [warmup_s] and measured in
   windows of [window_s], with fresh client domains per window; a metric is
   the median over all windows.  On this 2-core VM a single long window
   inherits one draw of thread placement and host contention (throughput
   swung 210k-400k req/s between runs of read-1m); many short windows over
   three servers sample them instead.  A chaos-kill session is a single
   window that opens [warmup_s] + [chaos_slack_s] after the spawn, with the
   kill a third of the way in. *)
type plan = {
  sessions : int;
  session_s : float;
  window_s : float;
  warmup_s : float;
  replay_requests : int;
  probe_s : float;
}

let chaos_slack_s = 0.5

let plan st =
  if st.smoke then
    { sessions = 1; session_s = 1.; window_s = 0.5; warmup_s = 0.3; replay_requests = 2_000; probe_s = 0.05 }
  else
    { sessions = 3; session_s = st.seconds /. 3.; window_s = 0.5; warmup_s = 1.; replay_requests = 200_000;
      probe_s = 0.3 }

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := !problems @ [ s ]; say "ORACLE: %s" s) fmt

(* ------------------------------- sessions -------------------------------- *)

(* One live server with its connections and the increments acknowledged
   on each counter key since it started. *)
type session = {
  srv : Server_proc.t;
  admin : Server_proc.admin;
  conns : Client.conn list;
  incs : int array;
  setup_s : float;
}

let window_slots (w : Workload.t) =
  match w.loop with Workload.Closed n -> n | Workload.Paced _ -> Workload.paced_max_inflight

(* Both connections run at once, one domain each. *)
let in_parallel fs = List.map Domain.join (List.map Domain.spawn fs)

(* Load every data key over the wire: two binary connections, 256 SETs in
   flight each. *)
let preload (srv : Server_proc.t) (w : Workload.t) ~seed =
  let part conn () =
    let c = Client.connect ~port:srv.port ~wire:Protocol.Binary ~slots:256 in
    let rng = Random.State.make [| seed; -1; conn |] in
    let i = ref conn in
    let t = Client.tally () in
    let next () =
      if !i >= w.keys then None
      else begin
        let k = !i in
        i := k + Workload.connections;
        Some (Protocol.Set (Workload.key_of_index k, Workload.value_for k rng), Workload.Data k)
      end
    in
    Client.closed c t ~next ~until_ns:max_int;
    Client.close c;
    t
  in
  let t = Client.merge (in_parallel (List.init Workload.connections part)) in
  if t.ok <> w.keys || t.failed > 0 || t.wrong <> [] then
    failwith (Printf.sprintf "preload: %d of %d keys acknowledged" t.ok w.keys)

(* Spawn, preload and connect; the server is stopped again if any of it
   fails. *)
let start_session st (w : Workload.t) ~chaos_at_s =
  let t0 = now_ns () in
  let srv = Server_proc.spawn ~kexd:st.kexd ~chaos_at_s in
  match
    preload srv w ~seed:st.seed;
    let setup_s = secs_since t0 in
    let admin = Server_proc.admin srv in
    let conns =
      List.init Workload.connections (fun _ ->
          Client.connect ~port:srv.port ~wire:w.wire ~slots:(window_slots w))
    in
    { srv; admin; conns; incs = Array.make Workload.counters 0; setup_s }
  with
  | s -> s
  | exception e ->
      ignore (Server_proc.stop srv);
      raise e

let end_session s =
  List.iter Client.close s.conns;
  Server_proc.close_admin s.admin;
  if not (Server_proc.stop s.srv) then problem "kexd serve did not exit 0 after SIGTERM"

(* Run [f] on a fresh session and always stop its server. *)
let with_session st w ~chaos_at_s f =
  let s = start_session st w ~chaos_at_s in
  Fun.protect ~finally:(fun () -> end_session s) (fun () -> (f s, s.setup_s))

(* Run both connections for [seconds]; the tally covers every request
   issued, including the drain after the deadline. *)
let drive (w : Workload.t) s gens ~seconds =
  let start = now_ns () in
  let until_ns = start + int_of_float (seconds *. 1e9) in
  let conn_loop c g () =
    let t = Client.tally () in
    (match w.loop with
    | Workload.Closed _ -> Client.closed c t ~next:(fun () -> Some (Workload.next g)) ~until_ns
    | Workload.Paced rate ->
        Client.paced c t ~next:(fun () -> Workload.next g) ~rate ~start_ns:start ~until_ns);
    t
  in
  let t = Client.merge (in_parallel (List.map2 conn_loop s.conns gens)) in
  Array.iteri (fun i n -> s.incs.(i) <- s.incs.(i) + n) t.incs;
  (t, float (t.last_ns - start) /. 1e9)

(* Every counter key must read back exactly its acknowledged increments. *)
let check_counters s =
  let keys = List.init Workload.counters Workload.counter_key in
  let resps = Server_proc.call s.admin (List.map (fun k -> Protocol.Get k) keys) in
  List.iteri
    (fun i resp ->
      let got =
        match resp with
        | Protocol.Value None -> Some 0
        | Protocol.Value (Some v) -> int_of_string_opt v
        | _ -> None
      in
      if got <> Some s.incs.(i) then
        problem "counter %s reads %s, but %d increments were acknowledged" (List.nth keys i)
          (match got with Some n -> string_of_int n | None -> "garbage")
          s.incs.(i))
    resps

type window = {
  tally : Client.tally;
  wall_s : float;
  cpu_us : int;
  client_cpu_us : float;
  rss_mb : float;
  delta : string -> int;  (** STATS counter growth over the window *)
}

let client_cpu_us () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e6

let measure (w : Workload.t) s gens ~seconds ~deaths =
  let before = Server_proc.stats s.admin in
  let cpu0 = Server_proc.cpu_us s.srv and ccpu0 = client_cpu_us () in
  let tally, wall_s = drive w s gens ~seconds in
  let cpu_us = Server_proc.cpu_us s.srv - cpu0 and client_cpu_us = client_cpu_us () -. ccpu0 in
  let after = Server_proc.stats s.admin in
  let delta name = Server_proc.stat after name - Server_proc.stat before name in
  List.iter (problem "%s") tally.wrong;
  if tally.failed > 0 then problem "%d requests failed" tally.failed;
  if delta "served" <> tally.ok then
    problem "server counted %d requests served, the client %d acknowledged" (delta "served") tally.ok;
  if delta "errors" <> 0 then problem "server counted %d errors" (delta "errors");
  if delta "deaths" <> deaths then problem "%d worker deaths in the window, expected %d" (delta "deaths") deaths;
  check_counters s;
  { tally; wall_s; cpu_us; client_cpu_us; rss_mb = Server_proc.peak_rss_mb s.srv; delta }

(* One workload, end to end: the windows and the setup times. *)
let run_e2e st (w : Workload.t) =
  let p = plan st in
  let gens = List.init Workload.connections (fun conn -> Workload.gen w ~seed:st.seed ~conn) in
  let session () =
    let t0 = now_ns () in
    let open_s = p.warmup_s +. chaos_slack_s in
    let chaos_at_s = if w.chaos then Some (open_s +. (p.session_s /. 3.)) else None in
    with_session st w ~chaos_at_s (fun s ->
        let warm = if w.chaos then open_s -. secs_since t0 else p.warmup_s in
        if warm > 0. then ignore (drive w s gens ~seconds:warm);
        if w.chaos then [ measure w s gens ~seconds:p.session_s ~deaths:1 ]
        else
          List.init (int_of_float (p.session_s /. p.window_s)) (fun _ ->
              measure w s gens ~seconds:p.window_s ~deaths:0))
  in
  let runs = List.init p.sessions (fun _ -> session ()) in
  (List.concat_map fst runs, List.map snd runs)

(* -------------------------------- metrics -------------------------------- *)

type metric = { name : string; unit_ : string; value : float; windows : float list }

let of_windows name unit_ f wins =
  let vs = List.map f wins in
  { name; unit_; value = Compare.median vs; windows = vs }

let pct (win : window) p = Hist.percentile win.tally.lat p /. 1000.
let per_req (win : window) x = x /. float (max 1 win.tally.ok)

(* The bounded end-to-end metrics, then the latency percentiles, which are
   reported but not bounded.  On a shared 2-core VM the host's speed drifts
   by 15-30 % over minutes, and a percentile amplifies that when it sits
   near the edge between ordinary requests and those caught by a stall:
   over ten-seed sets on a quiet host p50 spread up to 28 % (chaos-kill),
   p90 up to 35 % (chaos-kill) and p99 / p99.9 up to 47 % / 35 %
   (paced-mixed), while the mean, which takes stalls in linearly, stayed
   within 17 %. *)
let e2e_metrics (wins, setups) =
  ( [ of_windows "throughput_rps" "1/s" (fun w -> float w.tally.ok /. w.wall_s) wins;
      of_windows "mean_us" "us" (fun w -> Hist.mean w.tally.lat /. 1000.) wins;
      of_windows "server_rss_mb" "MB" (fun w -> w.rss_mb) wins;
      { name = "setup_s"; unit_ = "s"; value = Compare.median setups; windows = setups } ],
    [ of_windows "p50_us" "us" (fun w -> pct w 0.5) wins;
      of_windows "p90_us" "us" (fun w -> pct w 0.9) wins;
      of_windows "p99_us" "us" (fun w -> pct w 0.99) wins;
      of_windows "p999_us" "us" (fun w -> pct w 0.999) wins ] )

let ratio a b = if b = 0 then 0. else float a /. float b
let one name unit_ value = { name; unit_; value; windows = [] }

(* Per-layer readings from the real server's STATS deltas and the client. *)
let server_layer wins =
  let sum name = List.fold_left (fun acc w -> acc + w.delta name) 0 wins in
  let per_window name = ratio (sum name) (List.length wins) in
  let items = sum "served" - sum "inline_reads" in
  let lag = Hist.create () in
  List.iter (fun w -> Hist.merge_into lag w.tally.lag) wins;
  [ one "server.cpu_us_per_req" "us" (Compare.median (List.map (fun w -> per_req w (float w.cpu_us)) wins));
    one "server.items_per_batch" "items" (ratio items (sum "batches"));
    one "reactor.wakeups_per_post" "ratio" (ratio (sum "reactor_wakeups") (sum "reactor_posts"));
    one "reactor.posts_per_mutation" "ratio" (ratio (sum "reactor_posts") items);
    one "resilient.apply_calls_per_op" "ratio" (ratio (sum "apply_calls") (sum "ops_linearized"));
    one "server.redispatched" "count" (per_window "redispatched");
    one "server.deaths" "count" (per_window "deaths");
    one "client.cpu_us_per_req" "us"
      (Compare.median (List.map (fun w -> per_req w w.client_cpu_us) wins));
    one "paced.gen_lag_p99_us" "us" (Hist.percentile lag 0.99 /. 1000.) ]

(* The replay and the probes: [kexbench trace] for one workload. *)
let trace_layer st (w : Workload.t) =
  let p = plan st in
  let store = Kex_resilient.Kv_store.create ~algo:Kex_runtime.Kex_lock.Fast_path ~n:4 ~k:2 () in
  Replay.preload store w ~seed:st.seed;
  let frames = Replay.frames w ~seed:st.seed ~n:p.replay_requests in
  let off = Replay.run ~traced:false store w frames in
  let on = Replay.run ~traced:true store w frames in
  Option.iter (fun file -> Replay.write_spans on.spans (Printf.sprintf "%s.%s" file w.name)) st.spans;
  let c = on.counters in
  let per s ~by = if by.(s) = 0 then 0. else float c.ns.(s) /. float by.(s) in
  let self, total = Replay.self_times on.spans in
  let probes =
    let c1 = Probes.acquire_ns ~domains:1 ~seconds:p.probe_s in
    let c2 = Probes.acquire_ns ~domains:2 ~seconds:p.probe_s in
    let sims = Probes.sim_all () in
    log "sim-to-runtime (fastpath, N=4, k=2): acquire+release %.1f ns at c=1, %.1f ns at c=2 | %s" c1
      c2
      (String.concat ", "
         (List.map
            (fun (r : Probes.rrefs) -> Printf.sprintf "%s %d (bound %d)" r.label r.max_remote r.bound)
            sims));
    List.iter
      (fun (r : Probes.rrefs) ->
        if r.max_remote > r.bound then
          problem "%s: %d remote references exceed the theorem bound %d" r.label r.max_remote r.bound)
      sims;
    [ one "admission.acquire_ns_c1" "ns" c1; one "admission.acquire_ns_c2" "ns" c2 ]
    @ List.map (fun (r : Probes.rrefs) -> one r.label "count" (float r.max_remote)) sims
  in
  [ one "protocol.decode_ns" "ns" (per Replay.s_decode ~by:c.calls);
    one "protocol.encode_ns" "ns" (per Replay.s_encode ~by:c.units);
    one "store.read_ns" "ns" (per Replay.s_read ~by:c.calls);
    one "wqueue.push_ns" "ns" (per Replay.s_push ~by:c.calls);
    one "wqueue.wait_us" "us" (per Replay.s_wait ~by:c.calls /. 1000.);
    one "wqueue.batch_items" "items" (ratio c.units.(Replay.s_apply) c.calls.(Replay.s_apply));
    one "store.perform_batch_us" "us" (per Replay.s_apply ~by:c.calls /. 1000.);
    one "store.perform_ns_per_op" "ns" (per Replay.s_apply ~by:c.units);
    one "reactor.mailbox_ns" "ns" (per Replay.s_mailbox ~by:c.calls) ]
  @ probes
  @ Array.to_list
      (Array.mapi
         (fun i name -> one (Printf.sprintf "span.%s.self_share" name) "%" (100. *. ratio self.(i) total))
         Replay.span_names)
  @ [ one "replay.overhead_pct" "%" (100. *. (ratio on.wall_ns off.wall_ns -. 1.)) ]

(* -------------------------------- output --------------------------------- *)

let num v = if Float.is_finite v then Json.Float v else Json.Null

let result_line ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj (List.map (fun m -> (m.name, Json.Obj [ ("value", num m.value); ("unit", Json.String m.unit_) ])) metrics) ) ]

let record_line st (w : Workload.t) ~correct ~samples metrics =
  Json.Obj
    [ ("workload", Json.String w.name);
      ("seed", Json.Int st.seed);
      ("seconds", Json.Float st.seconds);
      ("correct", Json.Bool correct);
      ("latency_samples", Json.Int samples);
      ("metrics", Json.Obj (List.map (fun m -> (m.name, num m.value)) metrics));
      ("windows", Json.Obj (List.map (fun m -> (m.name, Json.List (List.map num m.windows))) metrics)) ]

let show_metrics (w : Workload.t) metrics =
  List.iter
    (fun m ->
      let range =
        match m.windows with
        | [] | [ _ ] -> ""
        | vs ->
            Printf.sprintf "  (min %.4g, max %.4g over %d)" (List.fold_left Float.min infinity vs)
              (List.fold_left Float.max neg_infinity vs) (List.length vs)
      in
      log "  %-12s %-30s %14.4f %-5s%s" w.name m.name m.value m.unit_ range)
    metrics

(* -------------------------------- commands -------------------------------- *)

type outcome = {
  w : Workload.t;
  correct : bool;
  attempted : int;
  failed : int;
  samples : int;
  e2e : metric list;
  tails : metric list;
  layer : metric list;
}

let run_workload st ~trace (w : Workload.t) =
  problems := [];
  log "kexbench: %s (seed %d)" w.name st.seed;
  let ((wins, _) as res) = run_e2e st w in
  let e2e, tails = e2e_metrics res in
  let samples = List.fold_left (fun a win -> a + Hist.count win.tally.lat) 0 wins in
  log "  %d latency samples over %d windows (p99.9 rests on %d samples beyond it)" samples
    (List.length wins) (samples / 1000);
  (match w.loop with
  | Workload.Paced _ ->
      let late = List.fold_left (fun a win -> a + Hist.count_above win.tally.lag 1_000_000) 0 wins in
      let sent = List.fold_left (fun a win -> a + Hist.count win.tally.lag) 0 wins in
      if float late > 0.01 *. float sent then
        log "  WARNING: the pacer sent %d of %d requests over 1 ms late; latency is not valid" late sent
  | Workload.Closed _ -> ());
  let layer = if trace then server_layer wins @ trace_layer st w else [] in
  let attempted = List.fold_left (fun a win -> a + win.tally.ok + win.tally.failed) 0 wins in
  let failed = List.fold_left (fun a win -> a + win.tally.failed) 0 wins in
  show_metrics w (e2e @ tails @ layer);
  { w; correct = !problems = []; attempted; failed; samples; e2e; tails; layer }

let benchmark_file = "BENCHMARK.json"

(* The smoke run: every workload, short, traced; the oracle must pass and
   the metric names must be exactly BENCHMARK.json's. *)
let smoke st ~spec_file =
  let spec = Compare.spec spec_file in
  verbose := false;
  let outs = List.map (run_workload st ~trace:true) (Workload.all ~smoke:true) in
  let names ms = List.sort compare (List.map (fun m -> m.name ^ " [" ^ m.unit_ ^ "]") ms) in
  let listed ms = List.sort compare (List.map (fun (m : Compare.metric) -> m.name ^ " [" ^ m.unit_ ^ "]") ms) in
  let fail = ref false in
  let expect what got want =
    if got <> want then begin
      fail := true;
      say "smoke: %s are [%s], BENCHMARK.json lists [%s]" what (String.concat " " got) (String.concat " " want)
    end
  in
  expect "workloads" (List.map (fun o -> o.w.name) outs) spec.workloads;
  List.iter
    (fun o ->
      if not o.correct then begin
        fail := true;
        say "smoke: %s failed its oracle" o.w.name
      end;
      expect (o.w.name ^ " end-to-end metrics") (names o.e2e) (listed spec.end_to_end);
      expect (o.w.name ^ " per-layer metrics") (names o.layer) (listed spec.per_layer))
    outs;
  if !fail then 1
  else begin
    say "kexbench smoke: ok (%d workloads, oracle passed, metric names match BENCHMARK.json)" (List.length outs);
    0
  end

let cmd_run st ~workload ~trace ~json ~spec_file =
  let append oc_line =
    Option.iter
      (fun file ->
        Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
            output_string oc (Json.to_string oc_line ^ "\n")))
      json
  in
  let finish o =
    append (record_line st o.w ~correct:o.correct ~samples:o.samples (o.e2e @ o.tails @ o.layer));
    o
  in
  if st.smoke then smoke st ~spec_file
  else
    match workload with
    | Some name -> (
        match Workload.find ~smoke:false name with
        | None ->
            say "unknown workload %S" name;
            2
        | Some w ->
            let o = finish (run_workload st ~trace w) in
            print_endline
              (Json.to_string
                 (result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
                    (if trace then o.layer else o.e2e)));
            if o.correct then 0 else 1)
    | None ->
        let outs = List.map (fun w -> finish (run_workload st ~trace w)) (Workload.all ~smoke:false) in
        List.iter (fun o -> show_metrics o.w (o.e2e @ o.tails)) outs;
        if List.for_all (fun o -> o.correct) outs then 0 else 1

let cmd_trace st ~workload =
  let ws =
    match workload with
    | Some name -> Option.to_list (Workload.find ~smoke:st.smoke name)
    | None -> Workload.all ~smoke:st.smoke
  in
  problems := [];
  List.iter (fun (w : Workload.t) -> show_metrics w (trace_layer st w)) ws;
  if ws <> [] && !problems = [] then 0 else 1

let usage =
  "usage: kexbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--kexd PATH]\n\
  \                    [--json FILE] [--spans FILE] [--smoke] [--benchmark FILE]\n\
  \       kexbench trace [--workload NAME] [--seed N] [--spans FILE] [--smoke]\n\
  \       kexbench compare A.json B.json [--benchmark FILE]"

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 12. and trace = ref 0 in
  let kexd = ref "_build/default/bin/kexd.exe" and json = ref None and spans = ref None in
  let smoke = ref false and spec_file = ref benchmark_file and anon = ref [] in
  let specs =
    [ ("--workload", Arg.String (fun s -> workload := Some s), "NAME one workload (default: all four)");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload, over three servers (default 12)");
      ("--trace", Arg.Set_int trace, "0|1 report the per-layer metrics instead of the end-to-end ones");
      ("--kexd", Arg.Set_string kexd, "PATH the kexd binary (default _build/default/bin/kexd.exe)");
      ("--json", Arg.String (fun s -> json := Some s), "FILE append one record line per workload run");
      ("--spans", Arg.String (fun s -> spans := Some s), "FILE write the replay's spans to FILE.<workload>");
      ("--smoke", Arg.Set smoke, " short run of every workload, checked against BENCHMARK.json");
      ("--benchmark", Arg.Set_string spec_file, "FILE the metric list and bounds (default BENCHMARK.json)") ]
  in
  let args = Sys.argv in
  if Array.length args < 2 then begin
    prerr_endline usage;
    exit 2
  end;
  (match Arg.parse_argv ~current:(ref 0) args specs (fun a -> anon := !anon @ [ a ]) usage with
  | () -> ()
  | exception Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | exception Arg.Help msg ->
      print_string msg;
      exit 0);
  (* A server that dies mid-write must surface as EPIPE, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let st = { seed = !seed; seconds = !seconds; smoke = !smoke; kexd = !kexd; spans = !spans } in
  let code =
    try
      match !anon with
      | [ "run" ] -> cmd_run st ~workload:!workload ~trace:(!trace = 1) ~json:!json ~spec_file:!spec_file
      | [ "trace" ] -> cmd_trace st ~workload:!workload
      | [ "compare"; a; b ] -> if Compare.run ~spec_file:!spec_file a b > 0 then 1 else 0
      | _ ->
          prerr_endline usage;
          2
    with
    | Failure msg | Sys_error msg ->
        say "kexbench: %s" msg;
        1
    | Unix.Unix_error (e, fn, _) ->
        say "kexbench: %s: %s" fn (Unix.error_message e);
        1
  in
  exit code
