(* kexd — command-line driver for the k-exclusion simulator, model checker
   and the networked resilient KV service.

     kexd run    --algo fastpath --model cc -n 32 -k 4 --contention 8
     kexd verify --figure fig2 -n 3 --crashes 2
     kexd serve  --port 7070 --workers 4 -k 2 --chaos kill-worker@5s
     kexd loadgen --port 7070 --connections 4 --duration 5 --mix get=80,set=20

   See DESIGN.md for the experiment catalogue these commands back. *)

open Cmdliner
open Kexclusion.Import

(* ------------------------------ shared args ----------------------------- *)

let model_conv =
  let parse = function
    | "cc" | "cache-coherent" -> Ok Cost_model.Cache_coherent
    | "dsm" | "distributed" -> Ok Cost_model.Distributed
    | s -> Error (`Msg (Printf.sprintf "unknown model %S (use cc or dsm)" s))
  in
  let print ppf m = Cost_model.pp_model ppf m in
  Arg.conv (parse, print)

(* An [--algo] converter over a name table: every algorithm in [all],
   spelled by [name]. *)
let names_conv ~all ~name ~of_string =
  let parse s =
    match of_string s with
    | Some a -> Ok a
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown algorithm %S (use %s)" s
               (String.concat ", " (List.map name all))))
  in
  let print ppf a = Format.pp_print_string ppf (name a) in
  Arg.conv (parse, print)

let algo_conv =
  names_conv ~all:Kexclusion.Registry.all ~name:Kexclusion.Registry.algo_name
    ~of_string:Kexclusion.Registry.algo_of_string

let model_arg =
  Arg.(value & opt model_conv Cost_model.Cache_coherent & info [ "model" ] ~doc:"cc or dsm")

let algo_arg =
  Arg.(
    value
    & opt algo_conv Kexclusion.Registry.Fast_path
    & info [ "algo" ] ~doc:"queue | bakery | inductive | tree | fastpath | graceful")

let n_arg = Arg.(value & opt int 32 & info [ "n"; "procs" ] ~doc:"number of processes")
let k_arg = Arg.(value & opt int 4 & info [ "k"; "degree" ] ~doc:"exclusion degree")
let iters_arg = Arg.(value & opt int 3 & info [ "iterations" ] ~doc:"acquisitions per process")
let seed_arg = Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"random scheduler seed")

let contention_arg =
  Arg.(value & opt (some int) None & info [ "contention"; "c" ] ~doc:"participating processes")

let assignment_arg =
  Arg.(value & flag & info [ "assignment" ] ~doc:"wrap in (N,k)-assignment (Figure 7 renaming)")

(* A value the command cannot run with: one line on stderr and exit 2, as
   [serve] answers a bad configuration. *)
let usage_error cmd msg =
  Format.eprintf "kexd %s: %s@." cmd msg;
  2

(* At k >= n every process is admitted at once, so a run checks nothing. *)
let k_not_below_n cmd ~n ~k =
  usage_error cmd (Printf.sprintf "-k %d must be below -n %d: at k >= n no process ever waits" k n)

(* ------------------------------- run ------------------------------------ *)

let run_cmd =
  let doc = "run one algorithm under the simulator and report remote references" in
  let run model algo n k iterations seed c assignment =
    let c = Option.value c ~default:n in
    let mem = Memory.create () in
    match
      if assignment then
        Kexclusion.Protocol.named_workload
          (Kexclusion.Registry.build_assignment mem ~model algo ~n ~k)
      else Kexclusion.Protocol.workload (Kexclusion.Registry.build mem ~model algo ~n ~k)
    with
    | exception Invalid_argument msg -> usage_error "run" msg
    | _ when c < 1 || c > n -> usage_error "run" (Printf.sprintf "--contention must be in 1..%d" n)
    | _ when iterations < 1 -> usage_error "run" "--iterations must be at least 1"
    | _ when k >= n -> k_not_below_n "run" ~n ~k
    | workload ->
        let cost = Cost_model.create model ~n_procs:n in
        let scheduler = Option.map (fun seed -> Kex_sim.Scheduler.random ~seed) seed in
        let cfg =
          Runner.config ~n ~k ~iterations ~cs_delay:2 ?scheduler
            ~participants:(List.init c Fun.id) ()
        in
        let res = Runner.run cfg mem cost workload in
        let s = Kex_sim.Stats.summarize res in
        Format.printf "algorithm   : %s%s@." (Kexclusion.Registry.algo_name algo)
          (if assignment then " + assignment" else "");
        Format.printf "model       : %a@." Cost_model.pp_model model;
        Format.printf "n=%d k=%d contention<=%d iterations=%d@." n k c iterations;
        Format.printf "result      : %s@."
          (if res.Runner.ok then "ok"
           else if res.stalled then "STALLED"
           else "VIOLATIONS: " ^ String.concat "; " res.violations);
        Format.printf "remote refs : max %d, mean %.1f per acquisition (%d acquisitions)@."
          s.Kex_sim.Stats.max_remote s.mean_remote s.acquisitions;
        (match Kexclusion.Registry.bound ~model algo ~n ~k ~c with
        | Some b -> Format.printf "paper bound : %d%s@." b (if assignment then Printf.sprintf " + %d (renaming)" k else "")
        | None -> Format.printf "paper bound : unbounded under contention@.");
        if res.Runner.ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ model_arg $ algo_arg $ n_arg $ k_arg $ iters_arg $ seed_arg $ contention_arg
      $ assignment_arg)

(* ------------------------------- verify --------------------------------- *)

(* The figures [verify] and [hunt] check, each with the k it checks at n
   processes and its model at that size: Figures 2, 6 and 7 are the shipped
   text run on [Traced]; Figures 4 and 5 are hand models. *)
type figure = Figure : (module Kex_verify.System.MODEL with type state = 's) -> figure

let figures =
  let open Kex_verify in
  let module S = Shipped.Figures in
  [ ("fig2", (fun n -> n - 1), fun ~n ~k:_ ~crashes -> Figure (S.fig2 ~n ~max_crashes:crashes));
    ( "fig4",
      (fun n -> max 1 (n - 2)),
      fun ~n ~k ~crashes -> Figure (Fig4_model.model ~n ~k ~max_crashes:crashes ()) );
    ( "fig5",
      (fun n -> min n 3 - 1),
      fun ~n ~k:_ ~crashes -> Figure (Fig5_model.model ~n:(min n 3) ~rounds:2 ~max_crashes:crashes ()) );
    ( "fig6",
      (fun n -> min n 2 - 1),
      fun ~n ~k:_ ~crashes -> Figure (S.fig6 ~n:(min n 2) ~max_crashes:crashes) );
    ("fig7", Fun.id, fun ~n ~k:_ ~crashes -> Figure (S.renaming ~procs:n ~k:n ~max_crashes:crashes)) ]

let figure_arg =
  let names = List.map (fun (name, _, _) -> name) figures in
  Arg.(value & opt string "fig2" & info [ "figure" ] ~doc:(String.concat ", " names))

let small_n_arg = Arg.(value & opt int 3 & info [ "n"; "procs" ] ~doc:"processes (keep small)")
let crashes_arg = Arg.(value & opt int 1 & info [ "crashes" ] ~doc:"crash budget")

(* Runs [f] on the named figure's model; 2 for an unknown name, a size
   with no process or with k below 1, or a negative crash budget. *)
let with_figure cmd name ~n ~crashes f =
  match List.find_opt (fun (fig, _, _) -> fig = name) figures with
  | None -> usage_error cmd (Printf.sprintf "unknown figure %S" name)
  | Some (_, k_of_n, model) ->
      let k = k_of_n n in
      if n < 1 then usage_error cmd "-n must be at least 1"
      else if k < 1 then
        usage_error cmd (Printf.sprintf "%s at -n %d checks k = %d; k must be at least 1" name n k)
      else if crashes < 0 then usage_error cmd "--crashes must be at least 0"
      else f (model ~n ~k ~crashes)

let verify_cmd =
  let doc = "exhaustively model-check a figure of the paper at small N" in
  let run figure n crashes =
    with_figure "verify" figure ~n ~crashes (fun (Figure m) ->
        let r = Kex_verify.Explore.check m () in
        Format.printf "%s: %d states, %d transitions, %s@." figure r.Kex_verify.Explore.states
          r.transitions
          (match r.violation with
          | None -> if r.complete then "all invariants hold" else "no violation (capped)"
          | Some v -> "VIOLATION of " ^ v.property);
        (* a capped exploration verified nothing *)
        if r.violation = None && r.complete then 0 else 1)
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ figure_arg $ small_n_arg $ crashes_arg)

(* -------------------------------- hunt ----------------------------------- *)

let hunt_cmd =
  let doc = "randomized deep-violation search on a figure's model" in
  let walks_arg = Arg.(value & opt int 200 & info [ "walks" ] ~doc:"random walks") in
  let steps_arg = Arg.(value & opt int 2000 & info [ "steps" ] ~doc:"steps per walk") in
  let run figure n crashes walks steps =
    if walks < 1 then usage_error "hunt" "--walks must be at least 1"
    else if steps < 1 then usage_error "hunt" "--steps must be at least 1"
    else
      with_figure "hunt" figure ~n ~crashes (fun (Figure (module M)) ->
          match Kex_verify.Explore.hunt (module M) ~seeds:(List.init walks Fun.id) ~steps () with
          | None ->
              Format.printf "no violation found in %d walks x %d steps@." walks steps;
              0
          | Some v ->
              Format.printf "%a" (Kex_verify.Explore.pp_violation M.pp) v;
              1)
  in
  Cmd.v (Cmd.info "hunt" ~doc)
    Term.(const run $ figure_arg $ small_n_arg $ crashes_arg $ walks_arg $ steps_arg)

(* -------------------------------- serve ---------------------------------- *)

let runtime_algo_conv =
  Kex_runtime.Kex_lock.(names_conv ~all ~name:algo_name ~of_string:algo_of_string)

let chaos_conv =
  let parse s =
    match Kex_service.Chaos.parse s with Ok e -> Ok e | Error msg -> Error (`Msg msg)
  in
  let print ppf e = Format.pp_print_string ppf (Kex_service.Chaos.to_string e) in
  Arg.conv (parse, print)

let port_arg = Arg.(value & opt int 7070 & info [ "port"; "p" ] ~doc:"TCP port (0 = ephemeral)")
let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"suppress progress output")

let serve_cmd =
  let doc = "serve the (k-1)-resilient KV store over TCP with a worker-pool admission wrapper" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Runs a listener plus $(b,--shards) S x $(b,--workers) W worker domains.  Keys route to \
         shards by hash; each shard's store sits behind its own k-exclusion/k-assignment \
         admission wrapper, so at most $(b,--k) workers mutate a shard concurrently and up to \
         k-1 workers per shard may die — $(b,--chaos) schedule or the KILL admin command — \
         with zero client-visible failures.  Killing k workers of one shard stalls that shard \
         (and only that shard): the paper's resilience boundary, live on the wire.  Workers \
         drain requests in batches through one admission and one commit per batch, and \
         id-tagged (pipelined) requests get their responses coalesced per connection.  A \
         shard's workers start on first use (its first ring push, or the first KILL aimed at \
         one of them); until then each reactor applies a quiet shard's mutations itself.  \
         Connections are owned by $(b,--reactors) poll(2) event-loop domains (accept \
         round-robins across them, worker completions arrive through lock-free mailboxes, \
         slow clients get backpressure from a bounded output buffer).  GETs are answered \
         wait-free on the event loop from each shard's committed head — no admission slot, so \
         reads stay live even on a fully wedged shard." ]
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers"; "w" ]
          ~doc:"worker domains per shard, started on the shard's first ring push or KILL")
  in
  let k_arg =
    Arg.(value & opt int 2 & info [ "k"; "degree" ] ~doc:"per-shard admission bound (k <= workers)")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards"; "s" ] ~doc:"independent store shards, each with its own admission wrapper")
  in
  let algo_arg =
    Arg.(
      value
      & opt runtime_algo_conv Kex_runtime.Kex_lock.Fast_path
      & info [ "algo" ] ~doc:"naive | inductive | tree | fastpath | graceful | dsm-fastpath")
  in
  let chaos_arg =
    Arg.(
      value
      & opt chaos_conv []
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:"fault-injection schedule, e.g. 'kill-worker@5s,kill-worker:2@10s'")
  in
  let duration_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"S" ~doc:"stop after S seconds (default: on SIGINT/SIGTERM)")
  in
  let cluster_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "cluster" ] ~docv:"ADDRS"
          ~doc:"join a cluster: comma-separated host:port list, identical on every node, with \
                $(b,--shards) then the global shard count (shard s starts on node s mod n)")
  in
  let node_arg =
    Arg.(
      value & opt int 0
      & info [ "node" ] ~docv:"I" ~doc:"this node's index into the $(b,--cluster) list")
  in
  let reactors_arg =
    Arg.(
      value & opt int 2
      & info [ "reactors"; "R" ] ~docv:"R"
          ~doc:"event-loop domains owning the connections (accept round-robins across them); \
                at least 1")
  in
  let run port workers k shards algo chaos duration cluster node reactors quiet =
    let log = if quiet then fun _ -> () else fun s -> print_endline s; flush stdout in
    match
      Kex_service.Server.run ?duration_s:duration
        { Kex_service.Server.default_config with
          port; workers; k; shards; algo; chaos;
          cluster = Option.map (fun addrs -> (node, addrs)) cluster;
          reactors;
          log }
    with
    | () -> 0
    | exception Invalid_argument msg ->
        Format.eprintf "kexd serve: %s@." msg;
        2
    | exception Unix.Unix_error (e, fn, _) ->
        Format.eprintf "kexd serve: %s: %s@." fn (Unix.error_message e);
        1
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ port_arg $ workers_arg $ k_arg $ shards_arg $ algo_arg $ chaos_arg
      $ duration_arg $ cluster_arg $ node_arg $ reactors_arg $ quiet_arg)

(* ------------------------------- loadgen ---------------------------------- *)

let loadgen_cmd =
  let doc = "drive a kexd server and measure throughput, latency percentiles and errors" in
  let mix_conv =
    let parse s =
      match Kex_service.Loadgen.parse_mix s with Ok m -> Ok m | Error msg -> Error (`Msg msg)
    in
    let print ppf m = Format.pp_print_string ppf (Kex_service.Loadgen.mix_to_string m) in
    Arg.conv (parse, print)
  in
  let host_arg = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"server address") in
  let conns_arg =
    Arg.(
      value & opt int 4
      & info [ "connections"; "c" ]
          ~doc:"client domains, each with $(b,--conns-per-client) connections")
  in
  let duration_arg = Arg.(value & opt float 5. & info [ "duration" ] ~docv:"S" ~doc:"seconds of load") in
  let mix_arg =
    Arg.(
      value
      & opt mix_conv Kex_service.Loadgen.default_config.Kex_service.Loadgen.mix
      & info [ "mix" ]
          ~doc:"weighted op mix, e.g. get=95,set=5 (ops: get/set/del/update/rmw/scan; rmw = \
                GET-then-SET charged as one request, scan = ordered range read)")
  in
  let keys_arg =
    Arg.(value & opt int 64 & info [ "keys" ] ~doc:"keyspace size (millions are fine)")
  in
  let dist_conv =
    let parse s =
      match Kex_service.Keydist.dist_of_string s with
      | Some d -> Ok d
      | None -> Error (`Msg (Printf.sprintf "unknown distribution %S (use uniform/zipfian/latest)" s))
    in
    let print ppf d = Format.pp_print_string ppf (Kex_service.Keydist.dist_name d) in
    Arg.conv (parse, print)
  in
  let dist_arg =
    Arg.(
      value
      & opt dist_conv Kex_service.Keydist.Uniform
      & info [ "dist" ] ~doc:"key distribution: uniform, zipfian (YCSB theta=0.99) or latest")
  in
  let value_size_arg = Arg.(value & opt int 16 & info [ "value-size" ] ~doc:"SET payload bytes") in
  let value_size_max_arg =
    Arg.(
      value & opt int 0
      & info [ "value-size-max" ]
          ~doc:"when > --value-size, SET sizes draw uniformly from [value-size, value-size-max]")
  in
  let scan_len_arg =
    Arg.(value & opt int 16 & info [ "scan-len" ] ~doc:"range length for scan ops")
  in
  let wire_conv =
    let parse = function
      | "text" -> Ok Kex_service.Protocol.Text
      | "binary" | "bin" -> Ok Kex_service.Protocol.Binary
      | s -> Error (`Msg (Printf.sprintf "unknown wire %S (use text or binary)" s))
    in
    let print ppf w = Format.pp_print_string ppf (Kex_service.Protocol.wire_name w) in
    Arg.conv (parse, print)
  in
  let wire_arg =
    Arg.(
      value
      & opt wire_conv Kex_service.Protocol.Text
      & info [ "wire" ] ~doc:"framing: text (v1) or binary (v2); the server sniffs per connection")
  in
  let lg_seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed") in
  let timeout_arg =
    Arg.(value & opt float 2. & info [ "timeout" ] ~docv:"S" ~doc:"per-request timeout (timeouts count as errors)")
  in
  let pipeline_arg =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"W"
          ~doc:"id-tagged requests in flight per connection (1 = one at a time)")
  in
  let conns_per_client_arg =
    Arg.(
      value & opt int 1
      & info [ "conns-per-client"; "conns" ] ~docv:"N"
          ~doc:"connections per client domain (total connections = N x $(b,--connections)), \
                multiplexed by the domain's poll loop, each with its own $(b,--pipeline) window \
                — the connection-scaling knob")
  in
  let phase_marks_arg =
    Arg.(
      value
      & opt (list float) []
      & info [ "phase-marks" ] ~docv:"T1,T2"
          ~doc:"split the run at these offsets (seconds) for per-phase stats")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"write the run record (schema kexclusion-serve/v6)")
  in
  let cluster_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "cluster" ] ~docv:"ADDRS"
          ~doc:"cluster seed nodes (comma-separated host:port): bootstrap the routing table \
                with TOPO from any of them, follow MOVED redirects, refresh on node loss")
  in
  let expect_dead_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "expect-dead" ] ~docv:"ADDRS"
          ~doc:"nodes expected to die mid-run (kill-node chaos): their errors are expected \
                and exempt from $(b,--fail-on-errors)")
  in
  let fail_on_errors_arg =
    Arg.(
      value & flag
      & info [ "fail-on-errors" ]
          ~doc:"exit 1 if any request failed (CI resilience assertion); errors attributed to \
                $(b,--expect-dead) nodes are exempt")
  in
  let run host port connections duration mix keys dist value_size value_size_max scan_len wire
      seed timeout pipeline conns_per_client phase_marks json cluster expect_dead fail_on_errors
      quiet =
    let cfg =
      { Kex_service.Loadgen.host; port; connections; duration_s = duration; mix; keys; dist;
        value_size; value_size_max; scan_len; seed; timeout_s = timeout; pipeline;
        conns_per_client; wire; phase_marks; cluster; expect_dead }
    in
    match Kex_service.Loadgen.run cfg with
    | summary ->
        if not quiet then Format.printf "%a" Kex_service.Loadgen.pp_summary summary;
        Option.iter
          (fun file -> Kex_service.Json.to_file file (Kex_service.Loadgen.to_json cfg summary))
          json;
        let unexpected =
          summary.Kex_service.Loadgen.errors - summary.Kex_service.Loadgen.expected_errors
        in
        if summary.Kex_service.Loadgen.requests <= summary.Kex_service.Loadgen.errors then begin
          Format.eprintf "kexd loadgen: no request succeeded — is the server up?@.";
          1
        end
        else if fail_on_errors && unexpected > 0 then begin
          Format.eprintf "kexd loadgen: %d unexpected failed requests@." unexpected;
          1
        end
        else 0
    | exception Invalid_argument msg ->
        Format.eprintf "kexd loadgen: %s@." msg;
        2
    | exception Unix.Unix_error (e, fn, _) ->
        Format.eprintf "kexd loadgen: %s: %s@." fn (Unix.error_message e);
        1
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(
      const run $ host_arg $ port_arg $ conns_arg $ duration_arg $ mix_arg $ keys_arg
      $ dist_arg $ value_size_arg $ value_size_max_arg $ scan_len_arg $ wire_arg $ lg_seed_arg
      $ timeout_arg $ pipeline_arg $ conns_per_client_arg $ phase_marks_arg $ json_arg
      $ cluster_arg $ expect_dead_arg $ fail_on_errors_arg $ quiet_arg)

(* --------------------------- lint and srclint ----------------------------- *)

let analysis_json_arg a =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:(Printf.sprintf "write the %s report" a.Kex_analysis.Report.schema))

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"print every finding with its witness, the mutants' too")

(* Both analyzers' gate: the subject table, each seeded mutant's verdict and
   the JSON document; exit 1 on an un-waived finding or on a mutant that its
   expected check did not kill exactly. *)
let gate a reports json verbose =
  let module A = Kex_analysis in
  let judged = A.Report.judge a in
  let section title r =
    match a.A.Report.findings r with
    | fs when verbose && fs <> [] -> Format.printf "@.%s:@.%a" title A.Report.pp_findings fs
    | _ -> ()
  in
  Format.printf "%a" (A.Report.pp_table a) reports;
  Stdlib.List.iter (fun r -> section (a.A.Report.title r) r) reports;
  Format.printf "@.%a" A.Report.pp_verdicts judged;
  Stdlib.List.iter (fun (m, r, _) -> section ("mutant " ^ m.A.Finding.m_name) r) judged;
  Option.iter (fun file -> Kex_service.Json.to_file file (A.Report.to_json a reports judged)) json;
  if
    Stdlib.List.for_all (A.Report.clean a) reports
    && Stdlib.List.for_all (fun (_, _, v) -> v = A.Finding.Killed) judged
  then 0
  else 1

let lint_cmd =
  let doc = "lint the algorithms' local-spin and exclusion discipline (static CFG + sanitizer)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Lowers each algorithm's Op program into a bounded symbolic control-flow graph and \
         runs the L1-L4 lint passes (remote spin, invalidation-in-loop, name leak, \
         Bounded_faa range), then executes the workload under several schedulers with the \
         run-time sanitizer hooked into the simulator (protected-cell writes, remote-spin \
         watchdog); the simulator's monitor reports k-exclusion and name violations as \
         S-monitor.  Findings at an algorithm's declared intended-spin sites are reported as \
         waived.  Then runs the seeded-mutant corpus, and exits 1 unless every algorithm is \
         clean and every mutant is killed by its expected check alone among the checks of \
         its layer.  Writes the kexclusion-lint/v1 JSON document with $(b,--json)." ]
  in
  let algo_opt_arg =
    Arg.(
      value
      & opt (some algo_conv) None
      & info [ "algo" ] ~doc:"lint only this algorithm (default: all six)")
  in
  let model_opt_arg =
    Arg.(
      value
      & opt (some model_conv) None
      & info [ "model" ] ~doc:"cc or dsm (default: both)")
  in
  let lint_n_arg =
    Arg.(value & opt int 5 & info [ "n"; "procs" ] ~doc:"representative process count")
  in
  let lint_k_arg = Arg.(value & opt int 2 & info [ "k"; "degree" ] ~doc:"exclusion degree") in
  let run algo model n k json verbose =
    let module A = Kex_analysis in
    let algos = match algo with Some a -> [ a ] | None -> Kexclusion.Registry.all in
    let models =
      match model with
      | Some m -> [ m ]
      | None -> [ Cost_model.Cache_coherent; Cost_model.Distributed ]
    in
    match
      Stdlib.List.concat_map
        (fun model ->
          Stdlib.List.map
            (fun algo -> A.Lint.analyze (A.Lint.subject_of_algo ~model ~algo ~n ~k))
            algos)
        models
    with
    | exception Invalid_argument msg -> usage_error "lint" msg
    | _ when k >= n -> k_not_below_n "lint" ~n ~k
    | reports -> gate A.Report.lint reports json verbose
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(
      const run $ algo_opt_arg $ model_opt_arg $ lint_n_arg $ lint_k_arg
      $ analysis_json_arg Kex_analysis.Report.lint $ verbose_arg)

let srclint_cmd =
  let doc = "lint the real OCaml service stack's concurrency discipline (S1-S5)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Parses every .ml under lib/ and bin/ with the compiler's grammar and walks each \
         function tracking which locks are held: S1 lock-leak (a Mutex.lock anywhere but at \
         the head of Sync.with_lock's own body; every mutex is taken through that \
         combinator), S2 wait-without-recheck (Condition.wait not inside a while loop), S3 \
         blocking-under-lock (Unix/Thread/Netio blocking calls inside a with_lock, \
         Mutex.protect or manifest-wrapper body), S4 non-atomic RMW (Atomic.set computed \
         from Atomic.get of the same cell), and S5 unguarded shared state (accesses that the \
         per-module guarded-by manifest assigns to a lock, made without it).  There are no \
         waivers: every finding counts.  Then runs the seeded source-mutant corpus, and exits \
         1 on any finding, or unless every mutant is killed by exactly its expected check.  \
         Writes the kexclusion-srclint/v1 JSON document with $(b,--json)." ]
  in
  let root_arg =
    Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc:"repository root to scan")
  in
  let run root = gate Kex_analysis.Report.srclint (Kex_analysis.Srclint.scan ~root ()) in
  Cmd.v (Cmd.info "srclint" ~doc ~man)
    Term.(const run $ root_arg $ analysis_json_arg Kex_analysis.Report.srclint $ verbose_arg)

(* -------------------------------- main ----------------------------------- *)

let () =
  let doc =
    "k-exclusion algorithms (Anderson & Moir, PODC 1994) — simulator, checker and resilient \
     KV service"
  in
  let info = Cmd.info "kexd" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; verify_cmd; hunt_cmd; lint_cmd; srclint_cmd; serve_cmd; loadgen_cmd ]))
