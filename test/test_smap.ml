(* The store's owned AVL index against Stdlib.Map as the model: random
   add/remove sequences must agree on every query, the add/remove reports
   must keep an exact key count, and the lockstep [find_many] must answer
   exactly what per-key [find_opt] does — on a tree tall enough that it
   really walks in lockstep. *)

module Smap = Kex_resilient.Smap
module M = Map.Make (String)
module Q = QCheck2

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

let suite =
  Helpers.tc "find_many edges: n = 0, 1, 64, duplicates, empty" test_find_many_edges
  :: List.map QCheck_alcotest.to_alcotest [ prop_model; prop_find_many_tall; prop_find_many_small ]
