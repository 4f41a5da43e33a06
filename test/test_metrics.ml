(* Metrics correctness fixes: negative latency stamps are clamped before
   they reach ANY of the three views (sum, max, histogram), so the mean can
   never be dragged below percentiles that never saw the sample; and the
   monotonicized clock never steps backwards. *)

module Metrics = Kex_service.Metrics

let assoc name pairs =
  match List.assoc_opt name pairs with
  | Some v -> v
  | None -> Alcotest.failf "no %S in pairs" name

let test_negative_latency_clamped_everywhere () =
  let m = Metrics.create () in
  Metrics.record m Metrics.C_get ~lat_us:(-50);
  Metrics.record m Metrics.C_get ~lat_us:100;
  let pairs = Metrics.pairs m in
  Alcotest.(check int) "both samples served" 2 (assoc "served_get" pairs);
  (* Unclamped sum would give (100 - 50) / 2 = 25. *)
  Alcotest.(check int) "mean over clamped samples" 50 (assoc "mean_us_get" pairs);
  Alcotest.(check int) "max unaffected" 100 (assoc "max_us_get" pairs)

let test_now_us_monotone () =
  let prev = ref (Metrics.now_us ()) in
  for _ = 1 to 10_000 do
    let t = Metrics.now_us () in
    if t < !prev then Alcotest.failf "clock stepped back: %d after %d" t !prev;
    prev := t
  done

let test_inline_reads_merged () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr_inline_reads a;
  Metrics.incr_inline_reads a;
  Metrics.incr_inline_reads b;
  Alcotest.(check int) "summed across instances" 3
    (assoc "inline_reads" (Metrics.pairs_merged [ a; b ]))

(* A batch records its per-item share once per op class: that must be
   indistinguishable, in every STATS pair, from recording each item. *)
let test_record_many_is_n_records () =
  List.iter
    (fun (n, lat_us) ->
      let batched = Metrics.create () and single = Metrics.create () in
      Metrics.record batched Metrics.C_get ~lat_us:3;
      Metrics.record single Metrics.C_get ~lat_us:3;
      Metrics.record_many batched Metrics.C_set ~n ~lat_us;
      for _ = 1 to n do
        Metrics.record single Metrics.C_set ~lat_us
      done;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "n = %d at %d us" n lat_us)
        (Metrics.pairs single) (Metrics.pairs batched))
    [ (0, 10); (1, 10); (7, 0); (32, 250); (5, -4); (11, 100_000) ]

let test_read_batch_counts () =
  let m = Metrics.create () in
  Metrics.incr_read_batch m ~gets:11;
  Metrics.incr_read_batch m ~gets:1;
  Metrics.incr_inline_reads m;
  Alcotest.(check int) "GETs and the SCAN" 13 (assoc "inline_reads" (Metrics.pairs m));
  Alcotest.(check int) "two batches" 2 (assoc "read_batches" (Metrics.pairs m))

let suite =
  [ Helpers.tc "negative latency clamped in sum, max and histogram"
      test_negative_latency_clamped_everywhere;
    Helpers.tc "now_us never steps backwards" test_now_us_monotone;
    Helpers.tc "inline_reads summed across instances" test_inline_reads_merged;
    Helpers.tc "record_many ~n equals n records" test_record_many_is_n_records;
    Helpers.tc "read batches count GETs and batches" test_read_batch_counts ]
