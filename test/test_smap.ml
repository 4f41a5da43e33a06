(* The store's owned AVL index against Stdlib.Map as the model: random
   add/remove sequences must agree on every query, the add/remove reports
   must keep an exact key count, and the lockstep [find_many] must answer
   exactly what per-key [find_opt] does — on a tree tall enough that it
   really walks in lockstep. *)

module M = Map.Make (String)
module Q = QCheck2

(* Single-key writes are batches of one, reporting whether the key count
   changed as the store counts it. *)
module Smap = struct
  include Kex_resilient.Smap

  let add key v m =
    let added = ref false in
    let m =
      update_many m [| key |] (fun _ cur ->
          added := Option.is_none cur;
          Some v)
    in
    (m, !added)

  (* An absent key leaves the very same tree. *)
  let remove key m =
    let m' = update_many m [| key |] (fun _ _ -> None) in
    (m', m' != m)
end

type cmd = Add of string * int | Remove of string

let show_cmd = function
  | Add (k, v) -> Printf.sprintf "add %s %d" k v
  | Remove k -> "remove " ^ k

(* A small key space so adds overwrite and removes hit present keys often. *)
let gen_key = Q.Gen.map (Printf.sprintf "k%02d") (Q.Gen.int_range 0 40)

let gen_cmds =
  let open Q.Gen in
  list_size (int_range 0 120)
    (frequency
       [ (3, map2 (fun k v -> Add (k, v)) gen_key small_int); (2, map (fun k -> Remove k) gen_key) ])

(* Replay [cmds] on both maps, counting keys from the add/remove reports. *)
let replay cmds =
  List.fold_left
    (fun (s, count, m) -> function
      | Add (k, v) ->
          let s, added = Smap.add k v s in
          (s, (if added then count + 1 else count), M.add k v m)
      | Remove k ->
          let s, removed = Smap.remove k s in
          (s, (if removed then count - 1 else count), M.remove k m))
    (Smap.empty, 0, M.empty) cmds

let take n seq = List.of_seq (Seq.take n seq)

let prop_model =
  Q.Test.make ~name:"smap: add/remove agree with Stdlib.Map" ~count:500
    ~print:(fun (cmds, _) -> String.concat "; " (List.map show_cmd cmds))
    Q.Gen.(pair gen_cmds (list_size (int_range 1 8) gen_key))
    (fun (cmds, probes) ->
      let s, count, m = replay cmds in
      Smap.bindings s = M.bindings m
      && count = M.cardinal m
      && List.for_all
           (fun k ->
             Smap.find_opt k s = M.find_opt k m
             && take 10 (Smap.to_seq_from k s) = take 10 (M.to_seq_from k m))
           (* Starts below, inside and above the key space. *)
           ("" :: "k" :: "z" :: probes))

(* A tree past find_many's plain-walk height: keys k000000, k000002, ...,
   so every odd index is an absent key that sorts between present ones. *)
let tall_size = 150_000
let tall_key i = Printf.sprintf "k%06d" i

let tall =
  lazy
    (let s = ref Smap.empty in
     for i = 0 to tall_size - 1 do
       s := fst (Smap.add (tall_key (2 * i)) i !s)
     done;
     !s)

let gen_batch n =
  Q.Gen.(array_repeat n (map tall_key (int_range 0 ((2 * tall_size) + 10))))

let agrees_with_find_opt s keys = Smap.find_many s keys = Array.map (fun k -> Smap.find_opt k s) keys

let prop_find_many_tall =
  Q.Test.make ~name:"smap: lockstep find_many = find_opt per key" ~count:300
    ~print:(fun keys -> String.concat " " (Array.to_list keys))
    Q.Gen.(
      int_range 0 48 >>= fun n ->
      (* Duplicates: some batches repeat their first half. *)
      map2
        (fun keys dup -> if dup then Array.append keys (Array.sub keys 0 (n / 2)) else keys)
        (gen_batch n) bool)
    (fun keys -> agrees_with_find_opt (Lazy.force tall) keys)

let prop_find_many_small =
  Q.Test.make ~name:"smap: plain find_many = find_opt per key" ~count:300
    Q.Gen.(pair gen_cmds (array_size (int_range 0 40) gen_key))
    (fun (cmds, keys) ->
      let s, _, _ = replay cmds in
      agrees_with_find_opt s keys)

let test_find_many_edges () =
  let s = Lazy.force tall in
  if Smap.height s <= 17 then Alcotest.failf "tall tree has only %d levels" (Smap.height s);
  Alcotest.(check int) "n = 0" 0 (Array.length (Smap.find_many s [||]));
  Alcotest.(check (array (option int))) "n = 1 present" [| Some 7 |] (Smap.find_many s [| tall_key 14 |]);
  Alcotest.(check (array (option int))) "n = 1 absent" [| None |] (Smap.find_many s [| tall_key 15 |]);
  let keys = Array.init 64 (fun i -> tall_key (if i mod 3 = 0 then (2 * i) + 1 else 4 * i)) in
  Alcotest.(check (array (option int)))
    "n = 64, a third absent"
    (Array.init 64 (fun i -> if i mod 3 = 0 then None else Some (2 * i)))
    (Smap.find_many s keys);
  let all_same = Array.make 64 (tall_key 0) in
  Alcotest.(check (array (option int))) "n = 64, one key" (Array.make 64 (Some 0))
    (Smap.find_many s all_same);
  Alcotest.(check (array (option int))) "empty tree" [| None; None |]
    (Smap.find_many Smap.empty [| "a"; "b" |])

(* [update_many] against folding single-key writes over the same changes,
   in Stdlib.Map and in the one-key [add]/[remove] above.  Keys come from a
   300-key space; a base tree and a change list are drawn in shapes that
   reach every branch of the descent: an empty base, all-new ascending
   runs (a new subtree much taller than the node it hangs from, so [join]
   recurses and rotates), deleting every key or a contiguous range (the
   [concat] of subtrees of unequal heights), and scattered sets and
   deletes. *)
let key_space = 300
let skey i = Printf.sprintf "k%03d" i

type change_case = { base : int list; changes : (int * int option) list }

let show_case c =
  Printf.sprintf "base [%s]; changes [%s]"
    (String.concat " " (List.map string_of_int c.base))
    (String.concat " "
       (List.map
          (fun (i, v) -> match v with Some v -> Printf.sprintf "%d=%d" i v | None -> Printf.sprintf "-%d" i)
          c.changes))

let gen_case =
  let open Q.Gen in
  let idx = int_range 0 (key_space - 1) in
  let* base =
    oneof
      [ return [];
        list_size (int_range 0 200) idx;
        map (fun n -> List.init n Fun.id) (int_range 0 key_space);
        (* Every other key, so a run of new keys interleaves with old ones. *)
        map (fun n -> List.init n (fun i -> 2 * i)) (int_range 0 (key_space / 2)) ]
  in
  let run = map2 (fun a n -> List.init (min n (key_space - a)) (fun i -> a + i)) idx (int_range 0 200) in
  let* changes =
    oneof
      [ list_size (int_range 0 80) (pair idx (opt small_int));
        map (List.map (fun i -> (i, Some i))) run;
        return (List.map (fun i -> (i, None)) base);
        map (List.map (fun i -> (i, None))) run ]
  in
  return { base; changes }

(* Distinct keys, ascending, each with its last change. *)
let sorted_changes changes =
  let module I = Map.Make (Int) in
  I.bindings (List.fold_left (fun m (i, v) -> I.add i v m) I.empty changes)

let prop_update_many =
  Q.Test.make ~name:"smap: update_many = folding add/remove" ~count:1000 ~print:show_case gen_case
    (fun c ->
      let s0 = List.fold_left (fun s i -> fst (Smap.add (skey i) i s)) Smap.empty c.base in
      let m0 = List.fold_left (fun m i -> M.add (skey i) i m) M.empty c.base in
      let changes = Array.of_list (sorted_changes c.changes) in
      let keys = Array.map (fun (i, _) -> skey i) changes in
      let calls = ref [] in
      let s1 =
        Smap.update_many s0 keys (fun j cur ->
            calls := (j, cur) :: !calls;
            snd changes.(j))
      in
      let fold add remove t =
        Array.fold_left
          (fun t (i, v) -> match v with Some v -> add (skey i) v t | None -> remove (skey i) t)
          t changes
      in
      let m1 = fold M.add M.remove m0 in
      let s1' = fold (fun k v s -> fst (Smap.add k v s)) (fun k s -> fst (Smap.remove k s)) s0 in
      Smap.bindings s1 = M.bindings m1
      && Smap.bindings s1' = M.bindings m1
      && Smap.well_formed s1
      (* [f] ran once per key, in index order, on the value before. *)
      && List.rev !calls = List.mapi (fun j k -> (j, M.find_opt k m0)) (Array.to_list keys)
      (* Persistent: the base tree is untouched. *)
      && Smap.bindings s0 = M.bindings m0)

(* Writing nothing returns the tree itself: reads, an absent key's delete
   and a present key's same value share every node. *)
let test_update_many_unchanged () =
  let s = List.fold_left (fun s i -> fst (Smap.add (skey i) i s)) Smap.empty (List.init 50 Fun.id) in
  let keys = Array.init 60 (fun i -> skey (i * 5)) in
  let same =
    Smap.update_many s keys (fun _ cur -> match cur with Some v -> Some v | None -> None)
  in
  (* [Some v] above is a fresh block but [v] is the same value. *)
  Alcotest.(check bool) "same tree" true (same == s);
  Alcotest.(check bool) "empty batch" true (Smap.update_many s [||] (fun _ _ -> None) == s)

(* The AVL invariant after bulk loads the store makes: 20,000 keys in
   ascending batches of 32 (read-1m's preload), then in descending order,
   then every other key deleted in batches; the height stays within the
   AVL bound.  The checker itself must reject a wrong height, an
   unbalanced node and keys out of order; those trees cannot be built
   through the interface, so they are laid out by hand in the node
   representation. *)
type mirror = E | N of { l : mirror; k : string; v : int; r : mirror; h : int }

let test_well_formed () =
  let n = 20_000 in
  let skey i = Printf.sprintf "k%06d" i in
  let grow order s =
    let rec go s b =
      if b * 32 >= n then s
      else begin
        let keys =
          Array.init (min 32 (n - (b * 32))) (fun j -> skey (order ((b * 32) + j)))
        in
        Array.sort String.compare keys;
        let s = Smap.update_many s keys (fun j _ -> Some j) in
        if not (Smap.well_formed s) then Alcotest.failf "not AVL after batch %d" b;
        go s (b + 1)
      end
    in
    go s 0
  in
  let up = grow Fun.id Smap.empty in
  let down = grow (fun i -> n - 1 - i) Smap.empty in
  Alcotest.(check int) "ascending loads every key" n (List.length (Smap.bindings up));
  Alcotest.(check int) "descending loads every key" n (List.length (Smap.bindings down));
  (* An AVL tree with balance tolerance 2 is within ~1.44 log2 n levels of
     Stdlib.Map's, and 20,000 keys fit 15 levels when perfectly packed. *)
  if Smap.height up > 22 then Alcotest.failf "height %d" (Smap.height up);
  let thinned =
    let rec go s b =
      if b * 64 >= n then s
      else
        let keys = Array.init 32 (fun j -> skey ((b * 64) + (2 * j))) in
        let s = Smap.update_many s keys (fun _ _ -> None) in
        if not (Smap.well_formed s) then Alcotest.failf "not AVL after delete batch %d" b;
        go s (b + 1)
    in
    go up 0
  in
  Alcotest.(check int) "half deleted" (n / 2) (List.length (Smap.bindings thinned));
  let leaf k = N { l = E; k; v = 0; r = E; h = 1 } in
  let bad (t : mirror) : int Smap.t = Obj.magic t in
  Alcotest.(check bool) "a leaf" true (Smap.well_formed (bad (leaf "a")));
  Alcotest.(check bool) "wrong height" false
    (Smap.well_formed (bad (N { l = leaf "a"; k = "b"; v = 0; r = E; h = 3 })));
  Alcotest.(check bool) "keys out of order" false
    (Smap.well_formed (bad (N { l = leaf "c"; k = "b"; v = 0; r = E; h = 2 })));
  let rec spine lo d =
    if d = 0 then E else N { l = E; k = skey lo; v = 0; r = spine (lo + 1) (d - 1); h = d }
  in
  Alcotest.(check bool) "a right spine of 3 (heights 0 and 2)" true
    (Smap.well_formed (bad (spine 0 3)));
  Alcotest.(check bool) "a right spine of 4 (heights 0 and 3)" false
    (Smap.well_formed (bad (spine 0 4)))

let suite =
  Helpers.tc "find_many edges: n = 0, 1, 64, duplicates, empty" test_find_many_edges
  :: List.map QCheck_alcotest.to_alcotest [ prop_model; prop_find_many_tall; prop_find_many_small ]
  @ [ QCheck_alcotest.to_alcotest prop_update_many;
      Helpers.tc "update_many that writes nothing returns the same tree" test_update_many_unchanged;
      Helpers.tc "AVL invariant over bulk loads and deletes; the check rejects bad trees"
        test_well_formed ]
