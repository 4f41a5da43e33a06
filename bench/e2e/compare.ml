(* BENCHMARK.json (the metric list and bounds) and [kexbench compare].

   A record file holds one JSON object per line, one per workload run:
   {"workload", "seed", "metrics": {name: value}, "windows": {name: [..]}}.
   For each (workload, end-to-end metric) pair [compare] takes one value
   per run — or, when a file holds a single run of that workload, the
   values of its measurement windows — and reports both medians, both
   quartiles and a verdict against the metric's bound:

   - unresolved: either side's quartile spread exceeds the bound, unless
     every value of B is better (or every value worse) than every value
     of A;
   - worse / better: B's median moved the wrong / right way by more than
     the bound;
   - same: otherwise. *)

module Json = Kex_service.Json

type metric = { name : string; unit_ : string; higher_better : bool; bound : float }
type spec = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let load_json file =
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)

let spec file =
  let j = load_json file in
  let metric m =
    { name = Option.get (Json.member_str "name" m);
      unit_ = Option.get (Json.member_str "unit" m);
      higher_better = Json.member_str "better" m = Some "higher";
      bound = Option.value (Json.member_number "bound" m) ~default:0. }
  in
  { workloads = List.filter_map (Json.member_str "name") (Json.member_list "workloads" j);
    end_to_end = List.map metric (Json.member_list "end_to_end" j);
    per_layer = List.map metric (Json.member_list "per_layer" j) }

let records file =
  In_channel.with_open_bin file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse l with Ok j -> j | Error msg -> failwith (Printf.sprintf "%s: %s" file msg))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartile [i] (1 or 3) as Python's [statistics.quantiles(xs, n=4)]
   computes it (the default "exclusive" method). *)
let quartile a i =
  let ld = Array.length a in
  if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.

type summary = { med : float; q1 : float; q3 : float; values : float list }

let summarize xs =
  let a = sorted xs in
  { med = median xs; q1 = quartile a 1; q3 = quartile a 3; values = xs }

let spread s = if s.med = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.med

(* Values of [metric] for [workload] in one record file. *)
let values recs ~workload ~metric =
  let runs = List.filter (fun r -> Json.member_str "workload" r = Some workload) recs in
  let of_metrics r = Option.bind (Json.member "metrics" r) (Json.member_number metric) in
  match runs with
  | [ r ] -> (
      match Option.bind (Json.member "windows" r) (Json.member metric) with
      | Some (Json.List vs) when List.length vs > 1 -> List.filter_map Json.to_number vs
      | _ -> Option.to_list (of_metrics r))
  | runs -> List.filter_map of_metrics runs

let verdict (m : metric) a b =
  (* Positive [worse_by] is a change in the wrong direction, as a share of
     A's median. *)
  let worse_by = (b.med -. a.med) /. Float.abs a.med *. if m.higher_better then -1. else 1. in
  let better x y = if m.higher_better then x > y else x < y in
  let all_b_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a.values) b.values in
  let all_b_worse = List.for_all (fun y -> List.for_all (fun x -> better x y) a.values) b.values in
  if spread a > m.bound || spread b > m.bound then
    if all_b_better then "better" else if all_b_worse then "worse" else "unresolved"
  else if worse_by > m.bound then "worse"
  else if worse_by < -.m.bound then "better"
  else "same"

(* Prints the table; returns the number of [worse] verdicts. *)
let run ~spec_file a_file b_file =
  let spec = spec spec_file in
  let ra = records a_file and rb = records b_file in
  Printf.printf "%-12s %-22s %12s %25s %12s %25s  %s\n" "workload" "metric" "A median" "A [q1, q3]"
    "B median" "B [q1, q3]" "verdict";
  let worse = ref 0 in
  List.iter
    (fun workload ->
      List.iter
        (fun (m : metric) ->
          match (values ra ~workload ~metric:m.name, values rb ~workload ~metric:m.name) with
          | [], _ | _, [] -> Printf.printf "%-12s %-22s (missing)\n" workload m.name
          | va, vb ->
              let a = summarize va and b = summarize vb in
              let v = verdict m a b in
              if v = "worse" then incr worse;
              let iqr s = Printf.sprintf "[%.4g, %.4g]" s.q1 s.q3 in
              Printf.printf "%-12s %-22s %12.4g %25s %12.4g %25s  %s (bound %.0f%%)\n" workload m.name
                a.med (iqr a) b.med (iqr b) v (100. *. m.bound))
        spec.end_to_end)
    spec.workloads;
  !worse
