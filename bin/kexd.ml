(* kexd — command-line driver for the k-exclusion simulator, model checker
   and the networked resilient KV service.

     kexd run    --algo fastpath --model cc --n 32 --k 4 --contention 8
     kexd sweep  --algo tree --model dsm --k 4 --over n --values 8,16,32,64
     kexd verify --figure fig2 --n 3 --crashes 2
     kexd serve  --port 7070 --workers 4 --k 2 --chaos kill-worker@5s
     kexd loadgen --port 7070 --connections 4 --duration 5 --mix get=80,set=20
     kexd bench-report BENCH_serve.json

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

let algo_conv =
  let parse s =
    match Kexclusion.Registry.algo_of_string s with
    | Some a -> Ok a
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown algorithm %S (use %s)" s
               (String.concat ", " (List.map Kexclusion.Registry.algo_name Kexclusion.Registry.all))))
  in
  let print ppf a = Format.pp_print_string ppf (Kexclusion.Registry.algo_name a) in
  Arg.conv (parse, print)

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

(* ------------------------------- run ------------------------------------ *)

let measure ~model ~algo ~n ~k ~c ~iterations ~seed ~assignment =
  let mem = Memory.create () in
  let workload =
    if assignment then
      Kexclusion.Protocol.named_workload
        (Kexclusion.Registry.build_assignment mem ~model algo ~n ~k)
    else Kexclusion.Protocol.workload (Kexclusion.Registry.build mem ~model algo ~n ~k)
  in
  let cost = Cost_model.create model ~n_procs:n in
  let scheduler = Option.map (fun seed -> Kex_sim.Scheduler.random ~seed) seed in
  let cfg =
    Runner.config ~n ~k ~iterations ~cs_delay:2 ?scheduler
      ~participants:(List.init c Fun.id) ()
  in
  Runner.run cfg mem cost workload

let run_cmd =
  let doc = "run one algorithm under the simulator and report remote references" in
  let run model algo n k iterations seed c assignment =
    let c = Option.value c ~default:n in
    let res = measure ~model ~algo ~n ~k ~c ~iterations ~seed ~assignment in
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

(* ------------------------------- sweep ---------------------------------- *)

let sweep_cmd =
  let doc = "sweep N or contention and print remote-reference series" in
  let over_conv =
    Arg.conv
      ( (function
        | "n" -> Ok `N
        | "contention" | "c" -> Ok `C
        | s -> Error (`Msg (Printf.sprintf "unknown sweep variable %S (use n or contention)" s))),
        fun ppf v -> Format.pp_print_string ppf (match v with `N -> "n" | `C -> "contention") )
  in
  let over_arg = Arg.(value & opt over_conv `N & info [ "over" ] ~doc:"n or contention") in
  let values_arg =
    Arg.(
      value
      & opt (list int) [ 8; 16; 32; 64 ]
      & info [ "values" ] ~doc:"comma-separated sweep values")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"also write the sweep as machine-readable JSON (schema kexclusion-sweep/v1, \
                same point fields as bench/main.ml)")
  in
  let run model algo n k iterations seed over values json =
    Format.printf "%-8s %10s %10s %10s %10s %10s@." "value" "max" "mean" "p50" "p99" "bound";
    let points =
      List.filter_map
        (fun v ->
          let n, c = match over with `N -> (v, v) | `C -> (n, v) in
          let res = measure ~model ~algo ~n ~k ~c ~iterations ~seed ~assignment:false in
          if not res.Runner.ok then begin
            Format.printf "%-8d (run failed)@." v;
            None
          end
          else begin
            let s = Kex_sim.Stats.summarize res in
            let bound = Kexclusion.Registry.bound ~model algo ~n ~k ~c in
            Format.printf "%-8d %10d %10.1f %10d %10d %10s@." v s.Kex_sim.Stats.max_remote
              s.mean_remote s.p50_remote s.p99_remote
              (match bound with Some b -> string_of_int b | None -> "-");
            Some (v, s, bound)
          end)
        values
    in
    (match json with
    | None -> ()
    | Some file ->
        let open Kex_service.Json in
        let point (v, (s : Kex_sim.Stats.summary), bound) =
          Obj
            ([ ("label", String (string_of_int v));
               ("value", Int v);
               ("max", Int s.Kex_sim.Stats.max_remote);
               ("mean", Float s.mean_remote);
               ("p50", Int s.p50_remote);
               ("p99", Int s.p99_remote) ]
            @ match bound with Some b -> [ ("bound", Int b) ] | None -> [])
        in
        let doc =
          Obj
            [ ("schema", String "kexclusion-sweep/v1");
              ("git_rev", String (Kex_service.Provenance.git_rev ()));
              ("hostname", String (Kex_service.Provenance.hostname ()));
              ("ocaml", String Sys.ocaml_version);
              ("algo", String (Kexclusion.Registry.algo_name algo));
              ("model", String (Format.asprintf "%a" Cost_model.pp_model model));
              ("n", Int n);
              ("k", Int k);
              ("iterations", Int iterations);
              ("over", String (match over with `N -> "n" | `C -> "contention"));
              ("points", List (Stdlib.List.map point points)) ]
        in
        let oc = open_out file in
        output_string oc (to_string ~indent:2 doc);
        output_char oc '\n';
        close_out oc);
    0
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run $ model_arg $ algo_arg $ n_arg $ k_arg $ iters_arg $ seed_arg $ over_arg
      $ values_arg $ json_arg)

(* ------------------------------- verify --------------------------------- *)

let verify_cmd =
  let doc = "exhaustively model-check a figure of the paper at small N" in
  let figure_arg =
    Arg.(value & opt string "fig2" & info [ "figure" ] ~doc:"fig2, fig4, fig5, fig6 or fig7")
  in
  let crashes_arg = Arg.(value & opt int 1 & info [ "crashes" ] ~doc:"crash budget") in
  let small_n_arg = Arg.(value & opt int 3 & info [ "n"; "procs" ] ~doc:"processes (keep small)") in
  let run figure n crashes =
    let report (type s) name (m : (module Kex_verify.System.MODEL with type state = s)) =
      let r = Kex_verify.Explore.check m () in
      Format.printf "%s: %d states, %d transitions, %s@." name r.Kex_verify.Explore.states
        r.transitions
        (match r.violation with
        | None -> if r.complete then "all invariants hold" else "no violation (capped)"
        | Some v -> "VIOLATION of " ^ v.property);
      match r.violation with None -> 0 | Some _ -> 1
    in
    match figure with
    | "fig2" -> report "fig2" (Kex_verify.Fig2_model.model ~n ~max_crashes:crashes ())
    | "fig4" ->
        report "fig4"
          (Kex_verify.Fig4_model.model ~n ~k:(max 1 (n - 2)) ~max_crashes:crashes ())
    | "fig5" ->
        report "fig5" (Kex_verify.Fig5_model.model ~n:(min n 3) ~rounds:2 ~max_crashes:crashes ())
    | "fig6" -> report "fig6" (Kex_verify.Fig6_model.model ~n:(min n 2) ~max_crashes:crashes ())
    | "fig7" -> report "fig7" (Kex_verify.Fig7_model.model ~procs:n ~k:n ~max_crashes:crashes ())
    | s ->
        Format.eprintf "unknown figure %S@." s;
        2
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ figure_arg $ small_n_arg $ crashes_arg)

(* -------------------------------- hunt ----------------------------------- *)

let hunt_cmd =
  let doc = "randomized deep-violation search on a figure's model" in
  let figure_arg = Arg.(value & opt string "fig2" & info [ "figure" ] ~doc:"fig2, fig4, fig6 or fig7") in
  let small_n_arg = Arg.(value & opt int 3 & info [ "n"; "procs" ] ~doc:"processes") in
  let crashes_arg = Arg.(value & opt int 1 & info [ "crashes" ] ~doc:"crash budget") in
  let walks_arg = Arg.(value & opt int 200 & info [ "walks" ] ~doc:"random walks") in
  let steps_arg = Arg.(value & opt int 2000 & info [ "steps" ] ~doc:"steps per walk") in
  let run figure n crashes walks steps =
    let hunt (type s) (m : (module Kex_verify.System.MODEL with type state = s))
        (pp : Format.formatter -> s -> unit) =
      match Kex_verify.Explore.hunt m ~seeds:(List.init walks Fun.id) ~steps () with
      | None ->
          Format.printf "no violation found in %d walks x %d steps@." walks steps;
          0
      | Some v ->
          Format.printf "%a" (Kex_verify.Explore.pp_violation pp) v;
          1
    in
    match figure with
    | "fig2" ->
        let (module M) = Kex_verify.Fig2_model.model ~n ~max_crashes:crashes () in
        hunt (module M) M.pp
    | "fig4" ->
        let (module M) = Kex_verify.Fig4_model.model ~n ~k:(max 1 (n - 2)) ~max_crashes:crashes () in
        hunt (module M) M.pp
    | "fig6" ->
        let (module M) = Kex_verify.Fig6_model.model ~n:(min n 3) ~max_crashes:crashes () in
        hunt (module M) M.pp
    | "fig7" ->
        let (module M) = Kex_verify.Fig7_model.model ~procs:n ~k:n ~max_crashes:crashes () in
        hunt (module M) M.pp
    | s ->
        Format.eprintf "unknown figure %S@." s;
        2
  in
  Cmd.v (Cmd.info "hunt" ~doc)
    Term.(const run $ figure_arg $ small_n_arg $ crashes_arg $ walks_arg $ steps_arg)

(* -------------------------------- serve ---------------------------------- *)

let runtime_algo_conv =
  let parse = function
    | "naive" -> Ok Kex_runtime.Kex_lock.Naive
    | "inductive" -> Ok Kex_runtime.Kex_lock.Inductive
    | "tree" -> Ok Kex_runtime.Kex_lock.Tree
    | "fastpath" -> Ok Kex_runtime.Kex_lock.Fast_path
    | "graceful" -> Ok Kex_runtime.Kex_lock.Graceful
    | "dsm-fastpath" -> Ok Kex_runtime.Kex_lock.Dsm_fast_path
    | s ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown algorithm %S (use naive, inductive, tree, fastpath, graceful or \
                dsm-fastpath)"
               s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (match a with
      | Kex_runtime.Kex_lock.Naive -> "naive"
      | Kex_runtime.Kex_lock.Inductive -> "inductive"
      | Kex_runtime.Kex_lock.Tree -> "tree"
      | Kex_runtime.Kex_lock.Fast_path -> "fastpath"
      | Kex_runtime.Kex_lock.Graceful -> "graceful"
      | Kex_runtime.Kex_lock.Dsm_fast_path -> "dsm-fastpath")
  in
  Arg.conv (parse, print)

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
         drain requests in batches through one admission per batch, and id-tagged (pipelined) \
         requests get their responses coalesced per connection.  Connections are owned by \
         $(b,--reactors) poll(2) event-loop domains (accept round-robins across them, worker \
         completions arrive through lock-free mailboxes, slow clients get backpressure from a \
         bounded output buffer).  GETs are answered wait-free on the event loop from each \
         shard's published snapshot — no admission slot, so reads stay live even on a fully \
         wedged shard." ]
  in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "workers"; "w" ] ~doc:"worker domains per shard")
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
          ~doc:"fault-injection schedule, e.g. 'kill-worker\\@5s,kill-worker:2\\@10s'")
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
        Option.iter (fun file -> Kex_service.Loadgen.emit_json ~file cfg summary) json;
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

(* ------------------------------ serve-sweep ------------------------------- *)

let serve_sweep_cmd =
  let doc = "measure a shards x pipeline throughput/latency matrix (in-process server per cell)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "For every (S, W) in $(b,--shards-list) x $(b,--pipeline-list), starts an in-process \
         kexd server with S shards (each with $(b,--workers) domains and admission bound \
         $(b,--k)), kills $(b,--kills) workers (default k-1, concentrated in shard 0) halfway \
         through, drives it with the load generator at pipeline depth W, and records \
         throughput and latency percentiles.  Every cell therefore doubles as a resilience \
         assertion: with kills <= k-1 the expected error count is zero.  Then it runs the wire \
         quad: one server at the (max S, max W) cell preloaded with $(b,--wire-keys) keys, \
         driven with YCSB-B (get=95,set=5) over text-v1 vs binary-v2 framing, uniform vs \
         Zipfian keys — no kills, so any error fails the gate.  Writes the kexclusion-serve/v6 \
         record with the matrix under $(b,sweep), the wire quad under $(b,wire) and the (max \
         S, max W) matrix cell as the headline $(b,totals)." ]
  in
  let shards_list_arg =
    Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "shards-list" ] ~doc:"shard counts to sweep")
  in
  let pipeline_list_arg =
    Arg.(
      value & opt (list int) [ 1; 4; 16 ] & info [ "pipeline-list" ] ~doc:"pipeline depths to sweep")
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers"; "w" ] ~doc:"worker domains per shard")
  in
  let k_arg =
    Arg.(value & opt int 2 & info [ "k"; "degree" ] ~doc:"per-shard admission bound (k <= workers)")
  in
  let algo_arg =
    Arg.(
      value
      & opt runtime_algo_conv Kex_runtime.Kex_lock.Fast_path
      & info [ "algo" ] ~doc:"naive | inductive | tree | fastpath | graceful | dsm-fastpath")
  in
  let conns_arg = Arg.(value & opt int 4 & info [ "connections"; "c" ] ~doc:"client domains") in
  let duration_arg =
    Arg.(value & opt float 2. & info [ "duration" ] ~docv:"S" ~doc:"seconds of load per cell")
  in
  let keys_arg = Arg.(value & opt int 64 & info [ "keys" ] ~doc:"keyspace size") in
  let value_size_arg = Arg.(value & opt int 16 & info [ "value-size" ] ~doc:"SET payload bytes") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed") in
  let kills_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kills" ] ~doc:"workers killed mid-cell (default k-1; 0 disables chaos)")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"write the kexclusion-serve/v6 sweep record")
  in
  let wire_keys_arg =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "wire-keys" ]
          ~doc:"preloaded keyspace for the text-vs-binary wire quad (0 skips the quad)")
  in
  let fail_on_errors_arg =
    Arg.(
      value & flag
      & info [ "fail-on-errors" ]
          ~doc:"exit 1 if any cell saw a failed request (CI resilience assertion)")
  in
  let run shards_list pipeline_list workers k algo connections duration keys value_size seed
      kills wire_keys json fail_on_errors quiet =
    let kills = Option.value kills ~default:(max 0 (k - 1)) in
    let mix = [ ("get", 70); ("set", 20); ("update", 10) ] in
    let start_server ~shards chaos =
      Kex_service.Server.start
        { Kex_service.Server.default_config with port = 0; workers; k; shards; algo; chaos }
    in
    let run_cell ~shards ~pipeline =
      (* Untargeted kills pick the lowest-index live worker, i.e. they pile
         into shard 0 — the per-shard resilience experiment. *)
      let kill_at = duration /. 2. in
      let chaos =
        List.init kills (fun i ->
            { Kex_service.Chaos.at_s = kill_at +. (0.05 *. float_of_int i);
              action = Kex_service.Chaos.Kill_worker; target = None })
      in
      let server = start_server ~shards chaos in
      let cfg =
        { Kex_service.Loadgen.default_config with
          port = Kex_service.Server.port server;
          connections;
          duration_s = duration;
          mix;
          keys;
          value_size;
          seed;
          timeout_s = 5.;
          pipeline;
          phase_marks = (if kills > 0 then [ kill_at ] else []) }
      in
      let summary = Kex_service.Loadgen.run cfg in
      Kex_service.Server.stop server;
      summary
    in
    if not quiet then
      Format.printf "%-7s %-9s %9s %7s %12s %9s %9s@." "shards" "pipeline" "requests" "errors"
        "req/s" "p50_us" "p99_us";
    let cells =
      Stdlib.List.concat_map
        (fun shards ->
          Stdlib.List.map
            (fun pipeline ->
              let s = run_cell ~shards ~pipeline in
              if not quiet then
                Format.printf "%-7d %-9d %9d %7d %12.0f %9d %9d@." shards pipeline
                  s.Kex_service.Loadgen.requests s.Kex_service.Loadgen.errors
                  s.Kex_service.Loadgen.throughput_rps s.Kex_service.Loadgen.p50_us
                  s.Kex_service.Loadgen.p99_us;
              (shards, pipeline, s))
            pipeline_list)
        shards_list
    in
    let headline =
      (* The (max S, max W) cell is the configuration the sweep argues for. *)
      Stdlib.List.fold_left
        (fun acc (s, w, sum) ->
          match acc with
          | Some (s', w', _) when (s', w') >= (s, w) -> acc
          | _ -> Some (s, w, sum))
        None cells
    in
    let rp_shards, rp_pipeline =
      match headline with Some (s, w, _) -> (s, w) | None -> (1, 1)
    in
    (* The wire quad: the same (max S, max W) cell under YCSB-B (get=95,set=5)
       against one server preloaded with [wire_keys] bindings, crossing
       text-v1 vs binary-v2 framing with uniform vs Zipfian key choice.  No
       kills — the quad prices the codec, not the resilience, so every error
       here fails the gate.  One shared server keeps the million-key preload
       out of the per-cell cost and means all four cells read the same
       store. *)
    let wire_mix = [ ("get", 95); ("set", 5) ] in
    let wire_cells =
      if wire_keys <= 0 then []
      else begin
        let server = start_server ~shards:rp_shards [] in
        let value = String.make (max 1 value_size) 'v' in
        Kex_service.Server.preload server
          (Seq.init wire_keys (fun i -> (Kex_service.Keydist.key_of_index i, value)));
        let cells =
          Stdlib.List.map
            (fun (wire, dist) ->
              let cfg =
                { Kex_service.Loadgen.default_config with
                  port = Kex_service.Server.port server;
                  connections;
                  duration_s = duration;
                  mix = wire_mix;
                  keys = wire_keys;
                  dist;
                  value_size;
                  seed;
                  timeout_s = 5.;
                  pipeline = rp_pipeline;
                  wire }
              in
              let s = Kex_service.Loadgen.run cfg in
              if not quiet then
                Format.printf
                  "wire=%-6s dist=%-8s (S=%d W=%d keys=%d) %9d req %7d err %12.0f req/s  p99 \
                   %6d us@."
                  (Kex_service.Protocol.wire_name wire)
                  (Kex_service.Keydist.dist_name dist)
                  rp_shards rp_pipeline wire_keys s.Kex_service.Loadgen.requests
                  s.Kex_service.Loadgen.errors s.Kex_service.Loadgen.throughput_rps
                  s.Kex_service.Loadgen.p99_us;
              (wire, dist, s))
            [ (Kex_service.Protocol.Text, Kex_service.Keydist.Uniform);
              (Kex_service.Protocol.Text, Kex_service.Keydist.Zipfian);
              (Kex_service.Protocol.Binary, Kex_service.Keydist.Uniform);
              (Kex_service.Protocol.Binary, Kex_service.Keydist.Zipfian) ]
        in
        Kex_service.Server.stop server;
        cells
      end
    in
    (match (json, headline) with
    | Some file, Some (hs, hw, hsum) ->
        let open Kex_service.Json in
        let cell_json (shards, pipeline, (s : Kex_service.Loadgen.summary)) =
          Obj
            [ ("shards", Int shards);
              ("pipeline", Int pipeline);
              ("kills", Int kills);
              ("requests", Int s.requests);
              ("errors", Int s.errors);
              ("throughput_rps", Float s.throughput_rps);
              ("p50_us", Int s.p50_us);
              ("p99_us", Int s.p99_us);
              ("max_us", Int s.max_us) ]
        in
        let wire_cell_json (wire, dist, (s : Kex_service.Loadgen.summary)) =
          Obj
            [ ("wire", String (Kex_service.Protocol.wire_name wire));
              ("dist", String (Kex_service.Keydist.dist_name dist));
              ("shards", Int rp_shards);
              ("pipeline", Int rp_pipeline);
              ("keys", Int wire_keys);
              ("mix", String (Kex_service.Loadgen.mix_to_string wire_mix));
              ("kills", Int 0);
              ("requests", Int s.requests);
              ("errors", Int s.errors);
              ("throughput_rps", Float s.throughput_rps);
              ("p50_us", Int s.p50_us);
              ("p99_us", Int s.p99_us) ]
        in
        let doc =
          Obj
            [ ("schema", String "kexclusion-serve/v6");
              ("git_rev", String (Kex_service.Provenance.git_rev ()));
              ("hostname", String (Kex_service.Provenance.hostname ()));
              ("ocaml", String Sys.ocaml_version);
              ( "config",
                Obj
                  [ ("workers", Int workers);
                    ("k", Int k);
                    ("shards", Int hs);
                    ("pipeline", Int hw);
                    ("connections", Int connections);
                    ("duration_s", Float duration);
                    ("mix", String (Kex_service.Loadgen.mix_to_string mix));
                    ("keys", Int keys);
                    ("value_size", Int value_size);
                    ("seed", Int seed);
                    ("kills", Int kills);
                    ("wire_keys", Int wire_keys) ] );
              ("totals", Kex_service.Loadgen.summary_json hsum);
              ("sweep", List (Stdlib.List.map cell_json cells));
              ("wire", List (Stdlib.List.map wire_cell_json wire_cells)) ]
        in
        let oc = open_out file in
        output_string oc (to_string ~indent:2 doc);
        output_char oc '\n';
        close_out oc
    | _ -> ());
    let all_summaries =
      Stdlib.List.map (fun (_, _, s) -> s) cells @ Stdlib.List.map (fun (_, _, s) -> s) wire_cells
    in
    let total_errors =
      Stdlib.List.fold_left (fun acc s -> acc + s.Kex_service.Loadgen.errors) 0 all_summaries
    in
    let no_successes =
      Stdlib.List.exists
        (fun s -> s.Kex_service.Loadgen.requests <= s.Kex_service.Loadgen.errors)
        all_summaries
    in
    if no_successes then begin
      Format.eprintf "kexd serve-sweep: a cell had no successful request@.";
      1
    end
    else if fail_on_errors && total_errors > 0 then begin
      Format.eprintf "kexd serve-sweep: %d failed requests across the matrix@." total_errors;
      1
    end
    else 0
  in
  Cmd.v (Cmd.info "serve-sweep" ~doc ~man)
    Term.(
      const run $ shards_list_arg $ pipeline_list_arg $ workers_arg $ k_arg $ algo_arg
      $ conns_arg $ duration_arg $ keys_arg $ value_size_arg $ seed_arg $ kills_arg
      $ wire_keys_arg $ json_arg $ fail_on_errors_arg $ quiet_arg)

(* ----------------------------- cluster-sweep ------------------------------ *)

let cluster_sweep_cmd =
  let doc = "measure the multi-node cluster: node-count scaling, live migration, node kill" in
  let man =
    [ `S Manpage.s_description;
      `P
        "For every N in $(b,--nodes-list), stands up an in-process shared-nothing cluster of \
         N kexd nodes over $(b,--shards) global shards (shard s starts on node s mod N, \
         epoch 1) and drives it with the cluster-aware load generator — clients bootstrap \
         the routing table with TOPO, route keys to shard owners and follow MOVED \
         redirects — at pipeline depth $(b,--pipeline) over the binary wire.  Then two \
         2-node resilience cells: $(b,migration), where shard 0 is handed off live between \
         nodes halfway through (bulk snapshot, fence + drain, delta + epoch bump) and zero \
         client-visible errors asserts that no acknowledged write was lost; and $(b,kill), \
         where one node is crashed abruptly mid-run (kill-node chaos) and its shards are \
         reassigned to the survivor shortly after — errors on the dead node are expected \
         and separately counted, while a single error on a surviving shard fails \
         $(b,--fail-on-errors).  Writes the kexclusion-serve/v5 record with the scaling \
         cells under $(b,cluster), the resilience cells under $(b,migration)/$(b,kill) and \
         the max-N scaling cell as the headline $(b,totals)." ]
  in
  let nodes_list_arg =
    Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "nodes-list" ] ~doc:"cluster sizes to sweep")
  in
  let workers_arg =
    Arg.(value & opt int 2 & info [ "workers"; "w" ] ~doc:"worker domains per shard per node")
  in
  let k_arg =
    Arg.(value & opt int 2 & info [ "k"; "degree" ] ~doc:"per-shard admission bound (k <= workers)")
  in
  let shards_arg =
    Arg.(value & opt int 4 & info [ "shards"; "s" ] ~doc:"global shard count (spread over nodes)")
  in
  let pipeline_arg =
    Arg.(value & opt int 16 & info [ "pipeline" ] ~docv:"W" ~doc:"requests in flight per client")
  in
  let conns_arg = Arg.(value & opt int 4 & info [ "connections"; "c" ] ~doc:"client domains") in
  let duration_arg =
    Arg.(value & opt float 2. & info [ "duration" ] ~docv:"S" ~doc:"seconds of load per cell")
  in
  let keys_arg = Arg.(value & opt int 64 & info [ "keys" ] ~doc:"keyspace size") in
  let value_size_arg = Arg.(value & opt int 16 & info [ "value-size" ] ~doc:"SET payload bytes") in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed") in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"write the kexclusion-serve/v5 sweep record")
  in
  let fail_on_errors_arg =
    Arg.(
      value & flag
      & info [ "fail-on-errors" ]
          ~doc:"exit 1 if any surviving-shard cell saw a failed request (CI resilience \
                assertion); the kill cell's dead-node errors are expected and exempt")
  in
  let run nodes_list workers k shards pipeline connections duration keys value_size seed json
      fail_on_errors quiet =
    let mix = [ ("get", 70); ("set", 20); ("update", 10) ] in
    (* An in-process N-node cluster on ephemeral ports: start every node
       cluster-less, read the ports back, then hand every node the shared
       address list — the same deterministic bootstrap real deployments
       compute from a fixed --cluster flag. *)
    let start_cluster ?(chaos = fun _ -> []) n =
      let servers =
        List.init n (fun i ->
            Kex_service.Server.start
              { Kex_service.Server.default_config with
                port = 0; workers; k; shards; chaos = chaos i })
      in
      let addrs =
        List.map (fun s -> Printf.sprintf "127.0.0.1:%d" (Kex_service.Server.port s)) servers
      in
      List.iteri (fun i s -> Kex_service.Server.enable_cluster s ~node:i ~addrs) servers;
      (servers, addrs)
    in
    let lg_cfg ~addrs ~expect_dead ~marks =
      { Kex_service.Loadgen.default_config with
        connections;
        duration_s = duration;
        mix;
        keys;
        value_size;
        seed;
        timeout_s = 5.;
        pipeline;
        wire = Kex_service.Protocol.Binary;
        phase_marks = marks;
        cluster = addrs;
        expect_dead }
    in
    let print_cell label (s : Kex_service.Loadgen.summary) =
      if not quiet then
        Format.printf
          "%-12s (S=%d W=%d) %9d req %6d err (%d expected) %6d redirects %12.0f req/s  p99 %6d \
           us@."
          label shards pipeline s.Kex_service.Loadgen.requests s.Kex_service.Loadgen.errors
          s.Kex_service.Loadgen.expected_errors s.Kex_service.Loadgen.redirects
          s.Kex_service.Loadgen.throughput_rps s.Kex_service.Loadgen.p99_us
    in
    (* Node-count scaling cells. *)
    let cells =
      Stdlib.List.map
        (fun n ->
          let servers, addrs = start_cluster n in
          let s = Kex_service.Loadgen.run (lg_cfg ~addrs ~expect_dead:[] ~marks:[]) in
          Stdlib.List.iter Kex_service.Server.stop servers;
          print_cell (Printf.sprintf "nodes=%d" n) s;
          (n, s))
        nodes_list
    in
    (* Migration under load: shard 0 moves from node 0 to node 1 halfway
       through.  Zero client-visible errors here is the zero-lost-acks
       assertion: every write acknowledged before the fence is in the bulk
       or delta shipment, none is acknowledged during it, and blocked
       clients wake to a MOVED naming the new owner. *)
    let migration_cell =
      let servers, addrs = start_cluster 2 in
      let src = Stdlib.List.nth servers 0 and dst_addr = Stdlib.List.nth addrs 1 in
      let mig_result = ref (Error "migration thread never ran") in
      let mig_thread =
        Thread.create
          (fun () ->
            Thread.delay (duration /. 2.);
            mig_result := Kex_service.Server.handoff src ~shard:0 ~addr:dst_addr)
          ()
      in
      let s = Kex_service.Loadgen.run (lg_cfg ~addrs ~expect_dead:[] ~marks:[ duration /. 2. ]) in
      Thread.join mig_thread;
      Stdlib.List.iter Kex_service.Server.stop servers;
      print_cell "migration" s;
      (match !mig_result with
      | Ok () -> ()
      | Error msg -> Format.eprintf "kexd cluster-sweep: migration failed: %s@." msg);
      (s, !mig_result)
    in
    (* Node kill + failover: node 1 crashes abruptly mid-run (kill-node
       chaos); its shards fail fast at clients — expected errors — until
       the survivor adopts them at a successor epoch and routing converges
       back to full coverage.  Surviving shards must not see one error. *)
    let kill_cell =
      let kill_at = duration /. 2. and adopt_at = duration *. 0.65 in
      let chaos i =
        if i = 1 then
          [ { Kex_service.Chaos.at_s = kill_at; action = Kex_service.Chaos.Kill_node;
              target = None } ]
        else []
      in
      let servers, addrs = start_cluster ~chaos 2 in
      let survivor = Stdlib.List.nth servers 0 and dead_addr = Stdlib.List.nth addrs 1 in
      let adopt_thread =
        Thread.create
          (fun () ->
            Thread.delay adopt_at;
            for shard = 0 to shards - 1 do
              if shard mod 2 = 1 then
                match Kex_service.Server.adopt survivor ~shard with
                | Ok () -> ()
                | Error msg ->
                    Format.eprintf "kexd cluster-sweep: adopt shard %d: %s@." shard msg
            done)
          ()
      in
      let s =
        Kex_service.Loadgen.run
          (lg_cfg ~addrs ~expect_dead:[ dead_addr ] ~marks:[ kill_at; adopt_at ])
      in
      Thread.join adopt_thread;
      Stdlib.List.iter Kex_service.Server.stop servers;
      print_cell "kill-node" s;
      (s, dead_addr)
    in
    let headline =
      Stdlib.List.fold_left
        (fun acc (n, s) -> match acc with Some (n', _) when n' >= n -> acc | _ -> Some (n, s))
        None cells
    in
    (match (json, headline) with
    | Some file, Some (hn, hsum) ->
        let open Kex_service.Json in
        let base (s : Kex_service.Loadgen.summary) =
          [ ("shards", Int shards);
            ("pipeline", Int pipeline);
            ("requests", Int s.requests);
            ("errors", Int s.errors);
            ("expected_errors", Int s.expected_errors);
            ("redirects", Int s.redirects);
            ("throughput_rps", Float s.throughput_rps);
            ("p50_us", Int s.p50_us);
            ("p99_us", Int s.p99_us) ]
        in
        let mig_sum, mig_result = migration_cell in
        let kill_sum, dead_addr = kill_cell in
        let doc =
          Obj
            [ ("schema", String "kexclusion-serve/v5");
              ("git_rev", String (Kex_service.Provenance.git_rev ()));
              ("hostname", String (Kex_service.Provenance.hostname ()));
              ("ocaml", String Sys.ocaml_version);
              ( "config",
                Obj
                  [ ("workers", Int workers);
                    ("k", Int k);
                    ("shards", Int shards);
                    ("pipeline", Int pipeline);
                    ("nodes", Int hn);
                    ("connections", Int connections);
                    ("duration_s", Float duration);
                    ("mix", String (Kex_service.Loadgen.mix_to_string mix));
                    ("keys", Int keys);
                    ("value_size", Int value_size);
                    ("seed", Int seed) ] );
              ("totals", Kex_service.Loadgen.summary_json hsum);
              ( "cluster",
                List
                  (Stdlib.List.map
                     (fun (n, s) -> Obj (("nodes", Int n) :: base s))
                     cells) );
              ( "migration",
                Obj
                  (("nodes", Int 2) :: ("shard", Int 0)
                  :: ("ok", Int (match mig_result with Ok () -> 1 | Error _ -> 0))
                  :: base mig_sum) );
              ( "kill",
                Obj (("nodes", Int 2) :: ("dead", String dead_addr) :: base kill_sum) ) ]
        in
        let oc = open_out file in
        output_string oc (to_string ~indent:2 doc);
        output_char oc '\n';
        close_out oc
    | _ -> ());
    let mig_sum, mig_result = migration_cell in
    let kill_sum, _ = kill_cell in
    let all_summaries = Stdlib.List.map snd cells @ [ mig_sum; kill_sum ] in
    let no_successes =
      Stdlib.List.exists
        (fun (s : Kex_service.Loadgen.summary) -> s.requests <= s.errors)
        all_summaries
    in
    let unexpected =
      Stdlib.List.fold_left
        (fun acc (s : Kex_service.Loadgen.summary) -> acc + s.errors - s.expected_errors)
        0 all_summaries
    in
    if no_successes then begin
      Format.eprintf "kexd cluster-sweep: a cell had no successful request@.";
      1
    end
    else if mig_result <> Ok () then 1
    else if fail_on_errors && unexpected > 0 then begin
      Format.eprintf "kexd cluster-sweep: %d unexpected failed requests across the cells@."
        unexpected;
      1
    end
    else 0
  in
  Cmd.v (Cmd.info "cluster-sweep" ~doc ~man)
    Term.(
      const run $ nodes_list_arg $ workers_arg $ k_arg $ shards_arg $ pipeline_arg $ conns_arg
      $ duration_arg $ keys_arg $ value_size_arg $ seed_arg $ json_arg $ fail_on_errors_arg
      $ quiet_arg)

(* -------------------------------- lint ----------------------------------- *)

let lint_cmd =
  let doc = "lint the algorithms' local-spin and exclusion discipline (static CFG + sanitizer)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Lowers each algorithm's Op program into a bounded symbolic control-flow graph and \
         runs the L1-L4 lint passes (remote spin, invalidation-in-loop, name leak, \
         Bounded_faa range), then executes the workload under several schedulers with the \
         run-time sanitizer hooked into the simulator (k-exclusion, name uniqueness, \
         protected-cell writes, remote-spin watchdog).  Findings at an algorithm's declared \
         intended-spin sites are reported as waived.  Writes the kexclusion-lint/v1 JSON \
         document with $(b,--json)." ]
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
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"write the kexclusion-lint/v1 report")
  in
  let require_clean_arg =
    Arg.(
      value & flag
      & info [ "require-clean" ] ~doc:"exit 1 on any non-waived finding (CI gate)")
  in
  let mutant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:"lint one seeded mutant instead of the real algorithms (expected dirty: \
                exits nonzero when the analyzer catches it)")
  in
  let mutants_arg =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:"also run the whole seeded-mutant corpus; exit 1 unless every mutant is \
                killed by its expected check")
  in
  let static_only_arg =
    Arg.(value & flag & info [ "static-only" ] ~doc:"skip the dynamic sanitizer runs")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print every finding with its witness")
  in
  let run algo model n k json require_clean mutant mutants static_only verbose =
    let module A = Kex_analysis in
    let analyze = A.Lint.analyze ~static_only in
    match mutant with
    | Some name -> (
        match A.Mutants.find name with
        | None ->
            Format.eprintf "unknown mutant %S (have: %s)@." name
              (String.concat ", " (Stdlib.List.map (fun m -> m.A.Mutants.m_name) A.Mutants.all));
            2
        | Some m ->
            let r = analyze m.A.Mutants.m_subject in
            Format.printf "mutant %s: %s@." m.A.Mutants.m_name m.A.Mutants.m_desc;
            Format.printf "expected: %s — %s@."
              (A.Finding.id m.A.Mutants.m_expected)
              (if A.Mutants.killed m r then "KILLED" else "SURVIVED");
            Format.printf "%a" A.Report.pp_findings r;
            Option.iter
              (fun file ->
                let oc = open_out file in
                output_string oc (Kex_service.Json.to_string ~indent:2 (A.Report.to_json [ r ]));
                output_char oc '\n';
                close_out oc)
              json;
            if A.Lint.clean r then 0 else 1)
    | None ->
        let algos = match algo with Some a -> [ a ] | None -> Kexclusion.Registry.all in
        let models =
          match model with
          | Some m -> [ m ]
          | None -> [ Cost_model.Cache_coherent; Cost_model.Distributed ]
        in
        let reports =
          Stdlib.List.concat_map
            (fun model ->
              Stdlib.List.map
                (fun algo -> analyze (A.Lint.subject_of_algo ~model ~algo ~n ~k))
                algos)
            models
        in
        Format.printf "%a" A.Report.pp_table reports;
        if verbose then
          Stdlib.List.iter
            (fun r ->
              if r.A.Lint.r_findings <> [] then begin
                Format.printf "@.%s under %s:@." r.A.Lint.r_subject.A.Lint.sub_name
                  (A.Report.model_name r.A.Lint.r_subject.A.Lint.sub_model);
                Format.printf "%a" A.Report.pp_findings r
              end)
            reports;
        let mutant_results =
          if not mutants then []
          else
            Stdlib.List.map
              (fun m ->
                let r = analyze m.A.Mutants.m_subject in
                (m, r, A.Mutants.killed m r))
              A.Mutants.all
        in
        if mutants then begin
          Format.printf "@.%-26s %-26s %s@." "mutant" "expected" "verdict";
          Format.printf "%s@." (String.make 62 '-');
          Stdlib.List.iter
            (fun (m, _, killed) ->
              Format.printf "%-26s %-26s %s@." m.A.Mutants.m_name
                (A.Finding.id m.A.Mutants.m_expected)
                (if killed then "killed" else "SURVIVED"))
            mutant_results
        end;
        Option.iter
          (fun file ->
            let oc = open_out file in
            output_string oc
              (Kex_service.Json.to_string ~indent:2
                 (A.Report.to_json ~mutants:mutant_results reports));
            output_char oc '\n';
            close_out oc)
          json;
        let dirty = Stdlib.List.exists (fun r -> not (A.Lint.clean r)) reports in
        let survived = Stdlib.List.exists (fun (_, _, killed) -> not killed) mutant_results in
        if (require_clean && dirty) || survived then 1 else 0
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(
      const run $ algo_opt_arg $ model_opt_arg $ lint_n_arg $ lint_k_arg $ json_arg
      $ require_clean_arg $ mutant_arg $ mutants_arg $ static_only_arg $ verbose_arg)

(* ------------------------------- srclint ---------------------------------- *)

let srclint_cmd =
  let doc = "lint the real OCaml service stack's concurrency discipline (S1-S5)" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Parses every .ml under lib/ and bin/ with the compiler's grammar and walks each \
         function with a path-sensitive model of lock state: S1 lock-leak (a Mutex.lock \
         with a raising or early-return path that skips the unlock), S2 wait-without-recheck \
         (Condition.wait not inside a while loop), S3 blocking-under-lock (Unix/Thread/Netio \
         blocking calls while a mutex is held), S4 non-atomic RMW (Atomic.set computed from \
         Atomic.get of the same cell), and S5 unguarded shared state (accesses that the \
         per-module guarded-by manifest assigns to a lock, made without it).  Waivers — \
         [@srclint.allow S3] attributes or manifest entries — are reported as waived, never \
         dropped.  Writes the kexclusion-srclint/v1 JSON document with $(b,--json)." ]
  in
  let root_arg =
    Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc:"repository root to scan")
  in
  let file_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH" ~doc:"lint a single .ml file instead of scanning")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"write the kexclusion-srclint/v1 report")
  in
  let require_clean_arg =
    Arg.(
      value & flag
      & info [ "require-clean" ] ~doc:"exit 1 on any non-waived finding (CI gate)")
  in
  let mutant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:"lint one seeded source mutant (expected dirty: exits nonzero when its \
                expected check kills it)")
  in
  let mutants_arg =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:"also run the seeded source-mutant corpus; exit 1 unless every mutant is \
                killed by exactly its expected check")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print every finding with its witness")
  in
  let run root file json require_clean mutant mutants verbose =
    let module A = Kex_analysis in
    match mutant with
    | Some name -> (
        match A.Srclint_mutants.find name with
        | None ->
            Format.eprintf "unknown mutant %S (have: %s)@." name
              (String.concat ", "
                 (Stdlib.List.map (fun m -> m.A.Srclint_mutants.sm_name) A.Srclint_mutants.all));
            2
        | Some m ->
            let fr = A.Srclint_mutants.report m in
            Format.printf "mutant %s: %s@." m.A.Srclint_mutants.sm_name
              m.A.Srclint_mutants.sm_desc;
            Format.printf "expected: %s — %s%s@."
              (A.Finding.id m.A.Srclint_mutants.sm_expected)
              (if A.Srclint_mutants.killed m fr then "KILLED" else "SURVIVED")
              (if A.Srclint_mutants.killed m fr && not (A.Srclint_mutants.exact m fr) then
                 " (but not exact)"
               else "");
            Format.printf "%a" A.Report.pp_srclint_findings fr;
            Option.iter
              (fun out ->
                let oc = open_out out in
                output_string oc
                  (Kex_service.Json.to_string ~indent:2 (A.Report.srclint_to_json [ fr ]));
                output_char oc '\n';
                close_out oc)
              json;
            if A.Srclint_mutants.killed m fr then 1 else 0)
    | None ->
        let frs =
          match file with
          | Some f -> [ A.Srclint.lint_file f ]
          | None -> A.Srclint.scan ~root ()
        in
        Format.printf "%a" A.Report.pp_srclint_table frs;
        if verbose then
          Stdlib.List.iter
            (fun fr ->
              if fr.A.Srclint.fr_findings <> [] then begin
                Format.printf "@.%s:@." fr.A.Srclint.fr_path;
                Format.printf "%a" A.Report.pp_srclint_findings fr
              end)
            frs;
        let mutant_results =
          if not mutants then []
          else
            Stdlib.List.map
              (fun m ->
                let fr = A.Srclint_mutants.report m in
                (m, fr, A.Srclint_mutants.killed m fr, A.Srclint_mutants.exact m fr))
              A.Srclint_mutants.all
        in
        if mutants then begin
          Format.printf "@.%-26s %-26s %s@." "mutant" "expected" "verdict";
          Format.printf "%s@." (String.make 66 '-');
          Stdlib.List.iter
            (fun (m, _, killed, exact) ->
              Format.printf "%-26s %-26s %s@." m.A.Srclint_mutants.sm_name
                (A.Finding.id m.A.Srclint_mutants.sm_expected)
                (if killed && exact then "killed"
                 else if killed then "KILLED-INEXACT"
                 else "SURVIVED"))
            mutant_results
        end;
        Option.iter
          (fun out ->
            let oc = open_out out in
            output_string oc
              (Kex_service.Json.to_string ~indent:2
                 (A.Report.srclint_to_json ~mutants:mutant_results frs));
            output_char oc '\n';
            close_out oc)
          json;
        let dirty = not (A.Srclint.clean frs) in
        let survived =
          Stdlib.List.exists (fun (_, _, killed, exact) -> not (killed && exact)) mutant_results
        in
        if (require_clean && dirty) || survived then 1 else 0
  in
  Cmd.v (Cmd.info "srclint" ~doc ~man)
    Term.(
      const run $ root_arg $ file_opt_arg $ json_arg $ require_clean_arg $ mutant_arg
      $ mutants_arg $ verbose_arg)

(* ----------------------------- bench-report ------------------------------- *)

let bench_report_cmd =
  let doc = "summarize a BENCH_*.json run record (bench v1/v2, serve v1-v6, sweep schemas)" in
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let require_zero_errors_arg =
    Arg.(value & flag & info [ "require-zero-errors" ] ~doc:"exit 1 unless the record has 0 errors")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "compare" ] ~docv:"BASELINE"
          ~doc:"serve-schema baseline record; exit 1 if FILE's headline throughput regresses \
                more than the tolerance below the baseline's")
  in
  let tolerance_arg =
    Arg.(
      value & opt float 0.2
      & info [ "tolerance" ] ~doc:"allowed fractional throughput regression for --compare")
  in
  let load_json file =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    Kex_service.Json.parse raw
  in
  let is_serve_schema schema =
    String.length schema >= 16 && String.sub schema 0 16 = "kexclusion-serve"
  in
  let serve_throughput doc =
    let open Kex_service.Json in
    match member_str "schema" doc with
    | Some schema when is_serve_schema schema ->
        Option.bind (member "totals" doc) (member_number "throughput_rps")
    | _ -> None
  in
  let run file require_zero_errors compare tolerance =
    let open Kex_service.Json in
    match load_json file with
    | Error msg ->
        Format.eprintf "%s: not valid JSON: %s@." file msg;
        2
    | Ok doc ->
        let str k = Option.value (member_str k doc) ~default:"-" in
        let schema = str "schema" in
        Format.printf "file     : %s@." file;
        Format.printf "schema   : %s@." schema;
        (* v1 records lack provenance; the reader stays tolerant. *)
        Format.printf "git_rev  : %s@." (str "git_rev");
        Format.printf "hostname : %s@." (str "hostname");
        Format.printf "ocaml    : %s@." (str "ocaml");
        let errors =
          if is_serve_schema schema then begin
            let totals = Option.value (member "totals" doc) ~default:(Obj []) in
            let num k = Option.value (member_number k totals) ~default:0. in
            let lat = Option.value (member "latency_us" totals) ~default:(Obj []) in
            let lat_i k = Option.value (member_int k lat) ~default:0 in
            Format.printf "requests : %.0f (%.0f req/s)@." (num "requests")
              (num "throughput_rps");
            Format.printf "latency  : p50 %d us, p99 %d us, max %d us@." (lat_i "p50")
              (lat_i "p99") (lat_i "max");
            let errors = int_of_float (num "errors") in
            Format.printf "errors   : %d@." errors;
            List.iter
              (fun ph ->
                Format.printf "  phase %-10s %6d req %5d err  p50 %6d  p99 %6d us@."
                  (Option.value (member_str "label" ph) ~default:"?")
                  (Option.value (member_int "requests" ph) ~default:0)
                  (Option.value (member_int "errors" ph) ~default:0)
                  (Option.value (member_int "p50_us" ph) ~default:0)
                  (Option.value (member_int "p99_us" ph) ~default:0))
              (member_list "phases" doc);
            (* v2 sweep matrix; absent from v1 records and plain runs. *)
            List.iter
              (fun cell ->
                Format.printf "  cell S=%d W=%d  %8d req %5d err  %9.0f req/s  p50 %6d  p99 %6d us@."
                  (Option.value (member_int "shards" cell) ~default:0)
                  (Option.value (member_int "pipeline" cell) ~default:0)
                  (Option.value (member_int "requests" cell) ~default:0)
                  (Option.value (member_int "errors" cell) ~default:0)
                  (Option.value (member_number "throughput_rps" cell) ~default:0.)
                  (Option.value (member_int "p50_us" cell) ~default:0)
                  (Option.value (member_int "p99_us" cell) ~default:0))
              (member_list "sweep" doc);
            (* v3 read-plane pair; absent from v1/v2 records. *)
            List.iter
              (fun cell ->
                Format.printf
                  "  reads %-10s S=%d W=%d  %8d req %5d err  %9.0f req/s  get %9.0f/s  p99 %6d us@."
                  (Option.value (member_str "reads" cell) ~default:"?")
                  (Option.value (member_int "shards" cell) ~default:0)
                  (Option.value (member_int "pipeline" cell) ~default:0)
                  (Option.value (member_int "requests" cell) ~default:0)
                  (Option.value (member_int "errors" cell) ~default:0)
                  (Option.value (member_number "throughput_rps" cell) ~default:0.)
                  (Option.value (member_number "get_rps" cell) ~default:0.)
                  (Option.value (member_int "p99_us" cell) ~default:0))
              (member_list "read_path" doc);
            (* v4 wire quad (text vs binary x uniform vs zipfian); absent
               from v1-v3 records. *)
            List.iter
              (fun cell ->
                Format.printf
                  "  wire %-6s %-8s keys=%-8d  %8d req %5d err  %9.0f req/s  p50 %6d  p99 %6d \
                   us@."
                  (Option.value (member_str "wire" cell) ~default:"?")
                  (Option.value (member_str "dist" cell) ~default:"?")
                  (Option.value (member_int "keys" cell) ~default:0)
                  (Option.value (member_int "requests" cell) ~default:0)
                  (Option.value (member_int "errors" cell) ~default:0)
                  (Option.value (member_number "throughput_rps" cell) ~default:0.)
                  (Option.value (member_int "p50_us" cell) ~default:0)
                  (Option.value (member_int "p99_us" cell) ~default:0))
              (member_list "wire" doc);
            (* v5 cluster cells (node-count scaling + migration + kill);
               absent from v1-v4 records. *)
            let pp_cluster_cell label cell =
              Format.printf
                "  %-11s S=%d W=%d  %8d req %5d err (%d expected) %5d redirects  %9.0f req/s  \
                 p99 %6d us@."
                label
                (Option.value (member_int "shards" cell) ~default:0)
                (Option.value (member_int "pipeline" cell) ~default:0)
                (Option.value (member_int "requests" cell) ~default:0)
                (Option.value (member_int "errors" cell) ~default:0)
                (Option.value (member_int "expected_errors" cell) ~default:0)
                (Option.value (member_int "redirects" cell) ~default:0)
                (Option.value (member_number "throughput_rps" cell) ~default:0.)
                (Option.value (member_int "p99_us" cell) ~default:0)
            in
            List.iter
              (fun cell ->
                pp_cluster_cell
                  (Printf.sprintf "nodes=%d" (Option.value (member_int "nodes" cell) ~default:0))
                  cell)
              (member_list "cluster" doc);
            Option.iter
              (fun cell ->
                pp_cluster_cell
                  (if Option.value (member_int "ok" cell) ~default:0 = 1 then "migration"
                   else "migration!?")
                  cell)
              (member "migration" doc);
            Option.iter (fun cell -> pp_cluster_cell "kill-node" cell) (member "kill" doc);
            (* v6 connection-scaling quad (thread plane vs reactor plane at
               rising connection counts); absent from v1-v5 records. *)
            List.iter
              (fun cell ->
                Format.printf
                  "  conns=%-4d %-8s R=%d  %8d req %5d err  %9.0f req/s  p50 %6d  p99 %6d us@."
                  (Option.value (member_int "conns" cell) ~default:0)
                  (Option.value (member_str "plane" cell) ~default:"?")
                  (Option.value (member_int "reactors" cell) ~default:0)
                  (Option.value (member_int "requests" cell) ~default:0)
                  (Option.value (member_int "errors" cell) ~default:0)
                  (Option.value (member_number "throughput_rps" cell) ~default:0.)
                  (Option.value (member_int "p50_us" cell) ~default:0)
                  (Option.value (member_int "p99_us" cell) ~default:0))
              (member_list "conn_scale" doc);
            errors
          end
          else begin
            (match member "total" doc with
            | Some total ->
                Format.printf "total    : %.3f s wall, %d steps (%.0f steps/s)@."
                  (Option.value (member_number "wall_s" total) ~default:0.)
                  (Option.value (member_int "steps" total) ~default:0)
                  (Option.value (member_number "steps_per_sec" total) ~default:0.)
            | None -> ());
            Format.printf "entries  : %d experiments, %d points@."
              (Stdlib.List.length (member_list "experiments" doc))
              (Stdlib.List.length (member_list "points" doc));
            0
          end
        in
        let compared =
          match compare with
          | None -> 0
          | Some baseline -> (
              match load_json baseline with
              | Error msg ->
                  Format.eprintf "%s: not valid JSON: %s@." baseline msg;
                  2
              | Ok base -> (
                  match (serve_throughput doc, serve_throughput base) with
                  | Some now, Some before ->
                      let floor = before *. (1. -. tolerance) in
                      Format.printf "compare  : %.0f req/s vs baseline %.0f (floor %.0f)@." now
                        before floor;
                      if now < floor then begin
                        Format.eprintf
                          "%s: throughput %.0f req/s regressed >%.0f%% below baseline %.0f@."
                          file now (tolerance *. 100.) before;
                        1
                      end
                      else 0
                  | _ ->
                      Format.eprintf "--compare needs serve-schema records with totals on both \
                                      sides@.";
                      2))
        in
        if compared <> 0 then compared
        else if require_zero_errors && errors > 0 then begin
          Format.eprintf "%s: %d errors (required zero)@." file errors;
          1
        end
        else 0
  in
  Cmd.v (Cmd.info "bench-report" ~doc)
    Term.(const run $ file_arg $ require_zero_errors_arg $ compare_arg $ tolerance_arg)

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
          [ run_cmd; sweep_cmd; verify_cmd; hunt_cmd; lint_cmd; srclint_cmd; serve_cmd;
            loadgen_cmd; serve_sweep_cmd; cluster_sweep_cmd; bench_report_cmd ]))
