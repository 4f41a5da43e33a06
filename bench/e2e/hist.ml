(* Log-linear latency histogram over nanoseconds.  Values below 256 are
   kept exactly; above, each power of two is split into 128 equal
   sub-buckets, so a bucket is at most 1/128 (0.8 %) of its lower edge wide
   and a reported percentile (the bucket midpoint) is within 0.4 % of the
   true sample.  Failed requests are counted as infinite latency, so any
   percentile they reach reads [infinity]. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let nbuckets = (63 - sub_bits) * sub + (2 * sub)

type t = { counts : int array; mutable n : int; mutable inf : int; mutable sum : int }

let create () = { counts = Array.make nbuckets 0; n = 0; inf = 0; sum = 0 }

let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1)

let index v =
  if v < 2 * sub then v
  else
    let shift = msb v 0 - sub_bits in
    (shift * sub) + (v lsr shift)

(* Lower edge and width of bucket [i]. *)
let bucket i =
  if i < 2 * sub then (i, 1)
  else
    let shift = (i / sub) - 1 in
    let mant = i - (shift * sub) in
    (mant lsl shift, 1 lsl shift)

let record t v =
  let v = max 0 v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let record_inf t =
  t.inf <- t.inf + 1;
  t.n <- t.n + 1

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.inf <- dst.inf + src.inf;
  dst.sum <- dst.sum + src.sum

let count t = t.n

(* Samples in buckets wholly above the one holding [v], failures included. *)
let count_above t v =
  let n = ref t.inf in
  for i = index (max 0 v) + 1 to nbuckets - 1 do
    n := !n + t.counts.(i)
  done;
  !n

let mean t =
  let finite = t.n - t.inf in
  if t.inf > 0 then infinity else if finite = 0 then 0. else float t.sum /. float finite

(* The sample of rank ceil(p * n), as its bucket's midpoint. *)
let percentile t p =
  if t.n = 0 then 0.
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float t.n))) in
    let rec go i seen =
      if i >= nbuckets then infinity
      else
        let seen = seen + t.counts.(i) in
        if seen >= rank then
          let lo, w = bucket i in
          float lo +. (float (w - 1) /. 2.)
        else go (i + 1) seen
    in
    go 0 0
