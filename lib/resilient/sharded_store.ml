(* The paper's methodology, instantiated S times: a sharded KV store where
   each shard is an independent (k-1)-resilient object behind its *own*
   (N,k)-assignment wrapper.  Keys route to shards by hash, so per-shard
   contention stays <= k while aggregate mutator parallelism becomes S*k —
   scaling by adding admission domains, not by raising k.  The resilience
   property is preserved per shard: k-1 worker deaths inside one shard cost
   that shard slots and nothing client-visible, and the other shards never
   notice. *)

type t = { shards : Kv_store.t array }

let create ?algo ~shards ~n ~k () =
  if shards < 1 then invalid_arg "Sharded_store.create: shards must be positive";
  { shards = Array.init shards (fun _ -> Kv_store.create ?algo ~n ~k ()) }

let shard_count t = Array.length t.shards
let shard t i = t.shards.(i)

(* FNV-1a (32-bit parameters; the accumulator lives in a native int): cheap,
   deterministic across runs (unlike Hashtbl.hash seeds we don't control),
   and good enough spread over short keys. *)
let hash_key key =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    key;
  !h land max_int

let shard_of_key t key =
  if Array.length t.shards = 1 then 0 else hash_key key mod Array.length t.shards

(* Single-op convenience API: route, then defer to the shard. *)

let set t ~pid ~key v = Kv_store.set t.shards.(shard_of_key t key) ~pid ~key v
let read t ~key = Kv_store.read t.shards.(shard_of_key t key) ~key

(* [read_many], [scan] and [size] answer only for the shards [owned]
   accepts: in a cluster an unowned shard's copy may be stale, and its
   owner answers for it.

   A batch of wait-free reads.  One pass buckets the key positions by
   shard; each non-empty bucket is then read off one head read of its
   shard ([Kv_store.read_many]), results landing back in key order.
   [owned] is asked once per shard the batch touches, just before that
   shard's read; a refused shard is not read and its keys answer
   [Error shard]. *)
let read_many ~owned t keys =
  let buckets = Array.make (Array.length t.shards) [] in
  for i = Array.length keys - 1 downto 0 do
    let s = shard_of_key t keys.(i) in
    buckets.(s) <- i :: buckets.(s)
  done;
  let out = Array.make (Array.length keys) (Ok None) in
  Array.iteri
    (fun s here ->
      if here <> [] then
        if owned s then
          let found =
            Kv_store.read_many t.shards.(s) (Array.of_list (List.map (Array.get keys) here))
          in
          List.iteri (fun j i -> out.(i) <- Ok found.(j)) here
        else List.iter (fun i -> out.(i) <- Error s) here)
    buckets;
  out

let owned_shards ~owned t = List.filteri (fun s _ -> owned s) (Array.to_list t.shards)

(* Range reads span shards (routing is by hash, not by range), so a scan
   merges the owned shards' wait-free scans.  Each per-shard slice is
   internally consistent; the merge is the usual sharded-store contract of
   per-shard (not global) atomicity. *)
let scan ~owned t ~start ~count =
  if count <= 0 then []
  else begin
    let all = List.concat_map (fun s -> Kv_store.scan s ~start ~count) (owned_shards ~owned t) in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) all in
    List.filteri (fun i _ -> i < count) sorted
  end

(* Per-shard stats, merged: sums are exact under any interleaving because
   each summand is a per-shard linearization counter. *)

let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 t.shards

let size ~owned t = List.fold_left (fun acc s -> acc + Kv_store.size s) 0 (owned_shards ~owned t)

let operations t = sum Kv_store.operations t
let apply_calls t = sum Kv_store.apply_calls t
let assignment t i = Kv_store.assignment t.shards.(i)
