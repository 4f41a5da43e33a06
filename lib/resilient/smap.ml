(* The store's persistent sorted index: Stdlib.Map's height-balanced (AVL)
   tree, specialised to string keys and cut down to the operations Kv_store
   uses.  It is owned here rather than taken from [Map.Make (String)] for
   one reason: [find_many] walks many lookups down the tree in lockstep, and
   that needs the node type, which Stdlib.Map keeps abstract.  The node
   layout is Stdlib.Map's (four fields and a height), so memory use is
   unchanged. *)

type 'a t = Empty | Node of { l : 'a t; k : string; v : 'a; r : 'a t; h : int }

let empty = Empty
let height = function Empty -> 0 | Node { h; _ } -> h

let node l k v r =
  let hl = height l and hr = height r in
  Node { l; k; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

(* Rebuild a node whose subtrees' heights differ by at most 3, rotating once
   or twice so they differ by at most 2 — Stdlib.Map's balance tolerance. *)
let bal l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; k = lk; v = lv; r = lr; _ } when height ll >= height lr ->
        node ll lk lv (node lr k v r)
    | Node { l = ll; k = lk; v = lv; r = Node { l = lrl; k = lrk; v = lrv; r = lrr; _ }; _ } ->
        node (node ll lk lv lrl) lrk lrv (node lrr k v r)
    | _ -> invalid_arg "Smap.bal"
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; k = rk; v = rv; r = rr; _ } when height rr >= height rl ->
        node (node l k v rl) rk rv rr
    | Node { l = Node { l = rll; k = rlk; v = rlv; r = rlr; _ }; k = rk; v = rv; r = rr; _ } ->
        node (node l k v rll) rlk rlv (node rlr rk rv rr)
    | _ -> invalid_arg "Smap.bal"
  else Node { l; k; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let rec find_opt key = function
  | Empty -> None
  | Node { l; k; v; r; _ } ->
      let c = String.compare key k in
      if c = 0 then Some v else find_opt key (if c < 0 then l else r)

let add key value m =
  let added = ref false in
  let rec go = function
    | Empty ->
        added := true;
        Node { l = Empty; k = key; v = value; r = Empty; h = 1 }
    | Node { l; k; v; r; h } as n ->
        let c = String.compare key k in
        if c = 0 then if v == value then n else Node { l; k; v = value; r; h }
        else if c < 0 then
          let l' = go l in
          if l' == l then n else bal l' k v r
        else
          let r' = go r in
          if r' == r then n else bal l k v r'
  in
  let m = go m in
  (m, !added)

let rec min_binding = function
  | Empty -> invalid_arg "Smap.min_binding"
  | Node { l = Empty; k; v; _ } -> (k, v)
  | Node { l; _ } -> min_binding l

let rec remove_min = function
  | Empty -> invalid_arg "Smap.remove_min"
  | Node { l = Empty; r; _ } -> r
  | Node { l; k; v; r; _ } -> bal (remove_min l) k v r

(* Join the two subtrees of a removed node (every key of [l] below every key
   of [r], heights within 2): the right side's least binding takes the
   removed node's place. *)
let join l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _ ->
      let k, v = min_binding r in
      bal l k v (remove_min r)

(* An absent key leaves the very same tree, and a present one never does:
   that identity is the "removed" report. *)
let remove key m =
  let rec go = function
    | Empty -> Empty
    | Node { l; k; v; r; _ } as n ->
        let c = String.compare key k in
        if c = 0 then join l r
        else if c < 0 then
          let l' = go l in
          if l' == l then n else bal l' k v r
        else
          let r' = go r in
          if r' == r then n else bal l k v r'
  in
  let m' = go m in
  (m', m' != m)

let bindings m =
  let rec go acc = function
    | Empty -> acc
    | Node { l; k; v; r; _ } -> go ((k, v) :: go acc r) l
  in
  go [] m

(* In-order enumeration from the smallest key >= [start]: a stack of
   (binding, right subtree) pairs still to visit. *)
type 'a pending = Done | More of string * 'a * 'a t * 'a pending

let rec push_left m rest =
  match m with Empty -> rest | Node { l; k; v; r; _ } -> push_left l (More (k, v, r, rest))

let to_seq_from start m =
  let rec from m rest =
    match m with
    | Empty -> rest
    | Node { l; k; v; r; _ } ->
        let c = String.compare k start in
        if c = 0 then More (k, v, r, rest)
        else if c < 0 then from r rest
        else from l (More (k, v, r, rest))
  in
  let rec seq p () =
    match p with Done -> Seq.Nil | More (k, v, r, rest) -> Seq.Cons ((k, v), seq (push_left r rest))
  in
  seq (from m Done)

(* A hint, not a load: start fetching the cache line a value points at and
   return at once (kex_prefetch_stubs.c). *)
external prefetch : 'a -> unit = "kex_prefetch" [@@noalloc]

(* Lockstep lookup, the interleaved index walk of AMAC (Kocberber et al.,
   VLDB 2015).  Each round moves every unresolved lookup one level down in
   two passes: the first prefetches the key string of each lookup's current
   node, the second compares against it (by now in cache), descends, and
   prefetches the child node for the next round.  A plain walk pays two
   dependent cache misses per level (node, then key) one lookup after
   another; here the misses of all lookups in a round are in flight
   together.  On a small tree the nodes stay cached and there is nothing to
   overlap, so the bookkeeping is pure overhead.  Measured on a 2-core
   x86-64 VM, the plain walk wins on trees of up to 17 levels (~5*10^4
   keys); from 18 levels (7*10^4 to 10^5 keys) the two tie or the lockstep
   walk wins, by ~2x at 10^6 keys and 11 or more keys per batch. *)
let plain_height = 17

let find_many m keys =
  let n = Array.length keys in
  if n <= 1 || height m <= plain_height then Array.map (fun key -> find_opt key m) keys
  else begin
    let found = Array.make n None in
    let at = Array.make n m in
    (* [live.(0 .. nlive-1)]: indices of the lookups still walking. *)
    let live = Array.init n Fun.id in
    let nlive = ref n in
    while !nlive > 0 do
      for j = 0 to !nlive - 1 do
        match at.(live.(j)) with Empty -> () | Node { k; _ } -> prefetch k
      done;
      let still = ref 0 in
      for j = 0 to !nlive - 1 do
        let i = live.(j) in
        match at.(i) with
        | Empty -> ()
        | Node { l; k; v; r; _ } ->
            let c = String.compare keys.(i) k in
            if c = 0 then found.(i) <- Some v
            else begin
              let child = if c < 0 then l else r in
              prefetch child;
              at.(i) <- child;
              live.(!still) <- i;
              incr still
            end
      done;
      nlive := !still
    done;
    found
  end
