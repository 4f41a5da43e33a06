(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md, section 4, for the experiment index) plus
   Bechamel microbenchmarks of the real-atomics runtime.

     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- thm3 fig3         # selected experiments
     dune exec bench/main.exe -- all-sim -j 4      # sim experiments, 4 domains
     dune exec bench/main.exe -- all-sim --json BENCH_sim.json
     dune exec bench/main.exe -- --list            # available ids

   Every simulator experiment is seeded and deterministic, and each one's
   output is buffered and printed in submission order, so stdout is
   byte-identical whatever -j says.  The pseudo-id "all-sim" expands to all
   simulator experiments; "micro" (wall-clock microbenchmarks, inherently
   noisy) always runs on the main domain and is not part of all-sim.

   A row that breaks a Theorem 1-10 bound (EXCEEDED) or the resilience
   claim (UNSAFE, or blocked with f <= k-1) makes the run exit 1 after
   everything has been printed, naming each such row on stderr. *)

type task = Sim of (unit -> unit) | Micro

type finished = {
  output : string;
  wall_s : float;
  steps : int;
  points : (string * Measure.point) list;
  breaches : string list;
  error : (exn * Printexc.raw_backtrace) option;
}

(* Run one simulator experiment with output buffered and stats collected in
   the calling domain's context (Measure.set_context). *)
let run_sim f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Measure.set_context ppf;
  let t0 = Unix.gettimeofday () in
  let error =
    try
      f ();
      None
    with e -> Some (e, Printexc.get_raw_backtrace ())
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Format.pp_print_flush ppf ();
  let steps, points, breaches = Measure.collected () in
  { output = Buffer.contents buf; wall_s; steps; points; breaches; error }

(* Print a finished experiment's (possibly partial) output, then re-raise
   its failure if it had one — same abort behaviour as running unbuffered. *)
let deliver r =
  print_string r.output;
  flush stdout;
  match r.error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ------------------------------ JSON emitter ----------------------------- *)

(* The kexclusion-bench/v2 record.  Floats are rounded to the precision the
   record has always carried: wall times to ms, means to 0.01, rates to
   whole steps per second. *)
let emit_json file ~jobs ~baseline ~wall tasks results =
  let open Kex_service.Json in
  let fixed digits x =
    let scale = 10. ** float_of_int digits in
    Float (Float.round (x *. scale) /. scale)
  in
  let per_sec steps s =
    Int (if s > 0. then Float.to_int (Float.round (float_of_int steps /. s)) else 0)
  in
  let point (label, (p : Measure.point)) =
    Obj
      [ ("label", String label); ("max", Int p.max); ("mean", fixed 2 p.mean); ("p50", Int p.p50);
        ("p99", Int p.p99) ]
  in
  let experiments =
    Array.to_list tasks
    |> List.mapi (fun i (id, t) -> (id, t, results.(i)))
    |> List.filter_map (function
         | id, Sim _, Some r ->
             Some
               (Obj
                  [ ("id", String id); ("wall_s", fixed 3 r.wall_s); ("steps", Int r.steps);
                    ("steps_per_sec", per_sec r.steps r.wall_s);
                    ("points", List (List.map point r.points)) ])
         | _ -> None)
  in
  let total_steps =
    Array.fold_left (fun acc r -> match r with Some r -> acc + r.steps | None -> acc) 0 results
  in
  let baseline =
    match baseline with
    | Some b ->
        ("baseline_wall_s", fixed 3 b)
        :: (if wall > 0. then [ ("speedup_vs_baseline", fixed 2 (b /. wall)) ] else [])
    | None -> []
  in
  to_file file
    (Obj
       ([ ("schema", String "kexclusion-bench/v2");
          ("git_rev", String (Kex_service.Provenance.git_rev ()));
          ("hostname", String (Kex_service.Provenance.hostname ()));
          ("ocaml", String Sys.ocaml_version); ("jobs", Int jobs) ]
       @ baseline
       @ [ ( "total",
             Obj
               [ ("wall_s", fixed 3 wall); ("steps", Int total_steps);
                 ("steps_per_sec", per_sec total_steps wall) ] );
           ("experiments", List experiments) ]))

(* --------------------------------- driver -------------------------------- *)

let () =
  (* The simulator's monadic interpreter allocates a continuation per step;
     a larger minor heap keeps that churn out of the major collector. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let sim_ids = List.map fst Experiments.all in
  let available = sim_ids @ [ "micro" ] in
  let jobs = ref 1 and json = ref None and baseline = ref None in
  let ids = ref [] and list_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | [ (("-j" | "--json" | "--baseline") as flag) ] ->
        Printf.eprintf "%s needs an argument\n" flag;
        exit 2
    | "-j" :: n :: rest ->
        jobs := int_of_string n;
        parse rest
    | "--json" :: f :: rest ->
        json := Some f;
        parse rest
    | "--baseline" :: s :: rest ->
        baseline := Some (float_of_string s);
        parse rest
    | id :: rest ->
        ids := id :: !ids;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then List.iter print_endline (available @ [ "all-sim" ])
  else begin
    let selected = match List.rev !ids with [] -> available | l -> l in
    let selected =
      List.concat_map (fun id -> if id = "all-sim" then sim_ids else [ id ]) selected
    in
    let tasks =
      List.map
        (fun id ->
          match List.assoc_opt id Experiments.all with
          | Some f -> (id, Sim f)
          | None ->
              if id = "micro" then (id, Micro)
              else begin
                Printf.eprintf "unknown experiment %S; use --list\n" id;
                exit 2
              end)
        selected
      |> Array.of_list
    in
    let n = Array.length tasks in
    let results : finished option array = Array.make n None in
    let jobs = max 1 !jobs in
    let t0 = Unix.gettimeofday () in
    if jobs = 1 then
      Array.iteri
        (fun i (_, t) ->
          match t with
          | Sim f ->
              let r = run_sim f in
              results.(i) <- Some r;
              deliver r
          | Micro -> Micro.run ())
        tasks
    else begin
      (* Fan the simulator experiments out across domains.  Workers claim
         task indices from a shared counter; each result slot is written by
         exactly one worker and read only after the joins, so the array
         needs no further synchronisation. *)
      let next = Atomic.make 0 in
      let worker () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match tasks.(i) with
            | _, Sim f -> results.(i) <- Some (run_sim f)
            | _, Micro -> ());
            go ()
          end
        in
        go ()
      in
      let helpers = List.init (min (jobs - 1) (max 0 (n - 1))) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join helpers;
      Array.iteri
        (fun i (_, t) ->
          match t with
          | Sim _ -> deliver (Option.get results.(i))
          | Micro -> Micro.run ())
        tasks
    end;
    let wall = Unix.gettimeofday () -. t0 in
    Format.printf "@.done.@.";
    Option.iter (fun file -> emit_json file ~jobs ~baseline:!baseline ~wall tasks results) !json;
    let breaches =
      Array.to_list tasks
      |> List.mapi (fun i (id, _) ->
             match results.(i) with
             | Some r -> List.map (fun b -> id ^ ": " ^ b) r.breaches
             | None -> [])
      |> List.concat
    in
    if breaches <> [] then begin
      Printf.eprintf "%d row(s) break a theorem bound or the resilience claim:\n"
        (List.length breaches);
      List.iter (Printf.eprintf "  %s\n") breaches;
      exit 1
    end
  end
