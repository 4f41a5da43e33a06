(* The store's persistent sorted index: Stdlib.Map's height-balanced (AVL)
   tree, specialised to string keys and cut down to the operations Kv_store
   uses.  It is owned here rather than taken from [Map.Make (String)]
   because two walks need the node type, which Stdlib.Map keeps abstract:
   [find_many] walks many lookups down the tree in lockstep, and
   [update_many] writes a sorted batch of keys in one descent.  The node
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

let rec min_binding = function
  | Empty -> invalid_arg "Smap.min_binding"
  | Node { l = Empty; k; v; _ } -> (k, v)
  | Node { l; _ } -> min_binding l

let rec remove_min = function
  | Empty -> invalid_arg "Smap.remove_min"
  | Node { l = Empty; r; _ } -> r
  | Node { l; k; v; r; _ } -> bal (remove_min l) k v r

(* [l], a binding, then [r] (every key of [l] below [k], every key of [r]
   above), of any heights: Stdlib.Map's [join].  It descends the taller side
   until the heights are within [bal]'s reach, so a subtree several levels
   taller than its new sibling is rebuilt only along one edge. *)
let rec join l k v r =
  let hl = height l and hr = height r in
  if hl > hr + 3 then
    match l with
    | Node { l = ll; k = lk; v = lv; r = lr; _ } -> bal ll lk lv (join lr k v r)
    | Empty -> assert false
  else if hr > hl + 3 then
    match r with
    | Node { l = rl; k = rk; v = rv; r = rr; _ } -> bal (join l k v rl) rk rv rr
    | Empty -> assert false
  else bal l k v r

(* [join] without the binding in the middle: the right side's least binding
   takes that place. *)
let concat l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _ ->
      let k, v = min_binding r in
      join l k v (remove_min r)

(* One descent for a sorted batch of distinct keys.  At each node a binary
   search splits the node's part of the batch, [keys.(lo .. hi-1)], around
   the node's key with three-way compares, stopping at an equal key.  The
   node is rebuilt once, by [join], after both of its subtrees; a removed
   key's subtrees are [concat]ed; untouched subtrees are shared.  Keys that
   reach an empty subtree are built into a balanced tree directly, and a
   part of one key walks down like a single add or remove: its subtree's
   height moves by at most one, so [bal] suffices.  [f] runs on each key in
   ascending order, because every range is visited left part, node, right
   part. *)
let rec update_range keys f m lo hi =
  if hi - lo = 1 then update_one keys f m lo
  else if lo >= hi then m
  else
    match m with
    | Empty -> build keys f lo hi
    | Node { l; k; v; r; _ } as n ->
        let a = ref lo and b = ref hi and hit = ref false in
        while !a < !b do
          let mid = (!a + !b) lsr 1 in
          let c = String.compare keys.(mid) k in
          if c < 0 then a := mid + 1
          else if c > 0 then b := mid
          else begin
            hit := true;
            a := mid;
            b := mid
          end
        done;
        let j = !a in
        if not !hit then begin
          let l' = update_range keys f l lo j in
          let r' = update_range keys f r j hi in
          if l' == l && r' == r then n else join l' k v r'
        end
        else begin
          let l' = update_range keys f l lo j in
          let changed = f j (Some v) in
          let r' = update_range keys f r (j + 1) hi in
          match changed with
          | Some v' -> if v' == v && l' == l && r' == r then n else join l' k v' r'
          | None -> concat l' r'
        end

and update_one keys f m i =
  match m with
  | Empty -> (
      match f i None with
      | Some v -> Node { l = Empty; k = keys.(i); v; r = Empty; h = 1 }
      | None -> Empty)
  | Node { l; k; v; r; h } as n ->
      let c = String.compare keys.(i) k in
      if c = 0 then
        match f i (Some v) with
        | Some v' -> if v' == v then n else Node { l; k; v = v'; r; h }
        | None -> concat l r
      else if c < 0 then
        let l' = update_one keys f l i in
        if l' == l then n else bal l' k v r
      else
        let r' = update_one keys f r i in
        if r' == r then n else bal l k v r'

(* [keys.(lo .. hi-1)] are all absent: halve the range, so a run of new keys
   becomes a tree of minimal height. *)
and build keys f lo hi =
  if lo >= hi then Empty
  else
    let mid = (lo + hi) lsr 1 in
    let l = build keys f lo mid in
    match f mid None with
    | Some v -> join l keys.(mid) v (build keys f (mid + 1) hi)
    | None -> concat l (build keys f (mid + 1) hi)

let update_many m keys f = update_range keys f m 0 (Array.length keys)

(* The shape checks a test needs: every node's stored height is exact, its
   subtrees' heights differ by at most 2, and keys ascend in order. *)
let well_formed m =
  (* The subtree's height, or -1 when it breaks a rule; [lo]/[hi] bound its
     keys (exclusive). *)
  let rec check lo hi = function
    | Empty -> 0
    | Node { l; k; r; h; _ } ->
        let in_range =
          (match lo with Some lo -> String.compare lo k < 0 | None -> true)
          && match hi with Some hi -> String.compare k hi < 0 | None -> true
        in
        let hl = check lo (Some k) l and hr = check (Some k) hi r in
        if in_range && hl >= 0 && hr >= 0 && abs (hl - hr) <= 2 && h = 1 + max hl hr then h
        else -1
  in
  check None None m >= 0

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
