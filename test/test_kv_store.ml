(* The resilient key-value store: the methodology applied to a realistic
   shared object. *)

open Kex_resilient

let test_basic_crud () =
  let s = Kv_store.create ~n:2 ~k:2 () in
  Alcotest.(check (option string)) "missing" None (Kv_store.get s ~pid:0 ~key:"a");
  Kv_store.set s ~pid:0 ~key:"a" "1";
  Kv_store.set s ~pid:1 ~key:"b" "2";
  Alcotest.(check (option string)) "present" (Some "1") (Kv_store.get s ~pid:1 ~key:"a");
  Alcotest.(check int) "size" 2 (Kv_store.size s);
  Alcotest.(check bool) "delete existing" true (Kv_store.delete s ~pid:0 ~key:"a");
  Alcotest.(check bool) "delete missing" false (Kv_store.delete s ~pid:0 ~key:"a");
  Alcotest.(check (list (pair string string))) "snapshot" [ ("b", "2") ] (Kv_store.snapshot s)

let test_set_overwrites () =
  let s = Kv_store.create ~n:1 ~k:1 () in
  Kv_store.set s ~pid:0 ~key:"x" "old";
  Kv_store.set s ~pid:0 ~key:"x" "new";
  Alcotest.(check (option string)) "latest wins" (Some "new") (Kv_store.get s ~pid:0 ~key:"x");
  Alcotest.(check int) "one key" 1 (Kv_store.size s)

let test_update_atomic () =
  let s = Kv_store.create ~n:1 ~k:1 () in
  Kv_store.update s ~pid:0 ~key:"c" (fun _ -> Some "0");
  Kv_store.update s ~pid:0 ~key:"c" (fun v ->
      Some (string_of_int (1 + int_of_string (Option.get v))));
  Alcotest.(check (option string)) "incremented" (Some "1") (Kv_store.get s ~pid:0 ~key:"c");
  Kv_store.update s ~pid:0 ~key:"c" (fun _ -> None);
  Alcotest.(check (option string)) "deleted via update" None (Kv_store.get s ~pid:0 ~key:"c")

let test_concurrent_counters () =
  (* n domains increment 8 shared per-key counters: no update may be lost. *)
  let n = 4 and k = 2 and per = 100 in
  let s = Kv_store.create ~n ~k () in
  let worker pid () =
    for i = 1 to per do
      let key = Printf.sprintf "k%d" (i mod 8) in
      Kv_store.update s ~pid ~key (fun v ->
          Some (string_of_int (1 + match v with Some x -> int_of_string x | None -> 0)))
    done
  in
  let ds = List.init n (fun pid -> Domain.spawn (worker pid)) in
  List.iter Domain.join ds;
  let total = List.fold_left (fun acc (_, v) -> acc + int_of_string v) 0 (Kv_store.snapshot s) in
  Alcotest.(check int) "no lost updates" (n * per) total;
  Alcotest.(check int) "all operations linearized" (n * per) (Kv_store.operations s)

let test_fetch_add () =
  let s = Kv_store.create ~n:1 ~k:1 () in
  Alcotest.(check int) "absent reads as 0" 5 (Kv_store.fetch_add s ~pid:0 ~key:"c" 5);
  Alcotest.(check int) "accumulates" 3 (Kv_store.fetch_add s ~pid:0 ~key:"c" (-2));
  Alcotest.(check (option string)) "stored as decimal" (Some "3") (Kv_store.get s ~pid:0 ~key:"c");
  Kv_store.set s ~pid:0 ~key:"j" "junk";
  Alcotest.(check int) "non-numeric reads as 0" 1 (Kv_store.fetch_add s ~pid:0 ~key:"j" 1)

let test_update_reexecuted_not_double_applied () =
  (* The announce+help contract under a mid-run crash, observed through a
     counting closure: helpers may re-execute the closure (calls can exceed
     linearized operations, and apply_calls counts every invocation), but
     each update commits exactly once — the counter lands on the exact
     total even though one client died holding an admission slot. *)
  let n = 4 and k = 3 and per = 120 in
  let s = Kv_store.create ~n ~k () in
  let closure_calls = Atomic.make 0 in
  let half = per / 2 in
  let bump pid =
    Kv_store.update s ~pid ~key:"ctr" (fun v ->
        Atomic.incr closure_calls;
        Some (string_of_int (1 + match v with Some x -> int_of_string x | None -> 0)))
  in
  let crasher () =
    for _ = 1 to half do
      bump 0
    done;
    (* Crash mid-run: hold an admission slot forever (k-1 tolerated). *)
    ignore (Kex_runtime.Kex_lock.Assignment.acquire (Kv_store.assignment s) ~pid:0)
  in
  let live pid () =
    for _ = 1 to per do
      bump pid
    done
  in
  let ds = Domain.spawn crasher :: List.init (n - 1) (fun i -> Domain.spawn (live (i + 1))) in
  List.iter Domain.join ds;
  let committed = half + ((n - 1) * per) in
  Alcotest.(check int) "every update linearized exactly once" committed (Kv_store.operations s);
  Alcotest.(check (option string)) "counter exact: no double-apply, no loss"
    (Some (string_of_int committed))
    (List.assoc_opt "ctr" (Kv_store.snapshot s));
  Alcotest.(check bool) "closure ran at least once per committed update" true
    (Atomic.get closure_calls >= committed);
  Alcotest.(check bool) "apply_calls counts helper re-executions" true
    (Kv_store.apply_calls s >= Kv_store.operations s)

let test_read_wait_free_on_wedged_store () =
  (* Wedge the store completely — every admission slot held by a dead
     client — then read.  A read loads the committed head and never enters
     admission, so it answers instantly where a pid-carrying get would
     spin forever. *)
  let k = 2 in
  let s = Kv_store.create ~n:4 ~k () in
  Kv_store.set s ~pid:2 ~key:"a" "1";
  Kv_store.set s ~pid:3 ~key:"b" "2";
  for pid = 0 to k - 1 do
    ignore (Kex_runtime.Kex_lock.Assignment.acquire (Kv_store.assignment s) ~pid)
  done;
  Alcotest.(check (option string)) "read answers on wedged store" (Some "1")
    (Kv_store.read s ~key:"a");
  Alcotest.(check (option string)) "missing key still None" None (Kv_store.read s ~key:"nope");
  let ver, pairs = Kv_store.read_versioned s in
  Alcotest.(check int) "snapshot version = operations applied" 2 ver;
  Alcotest.(check (list (pair string string))) "whole map visible" [ ("a", "1"); ("b", "2") ]
    (List.sort compare pairs);
  Alcotest.(check int) "read_version agrees" 2 (Kv_store.read_version s)

let test_read_sees_acknowledged_writes () =
  (* Commit-before-return: any mutation that has returned is visible to a
     subsequent head read, across every key of a busy store. *)
  let s = Kv_store.create ~n:2 ~k:1 () in
  for i = 1 to 40 do
    let key = Printf.sprintf "k%d" i in
    Kv_store.set s ~pid:(i mod 2) ~key (string_of_int i);
    Alcotest.(check (option string))
      (Printf.sprintf "read sees acked set %d" i)
      (Some (string_of_int i))
      (Kv_store.read s ~key)
  done;
  Alcotest.(check int) "version tracks every op" 40 (Kv_store.read_version s)

(* A scan is the first [count] bindings at or after [start], ascending,
   from one committed state; like [read] it needs no slot, so it answers
   on a store whose every admission slot is held by a dead client. *)
let test_scan () =
  let k = 2 in
  let s = Kv_store.create ~n:4 ~k () in
  List.iter (fun key -> Kv_store.set s ~pid:2 ~key (String.uppercase_ascii key)) [ "d"; "b"; "a"; "c" ];
  ignore (Kv_store.delete s ~pid:3 ~key:"c");
  for pid = 0 to k - 1 do
    ignore (Kex_runtime.Kex_lock.Assignment.acquire (Kv_store.assignment s) ~pid)
  done;
  let check name want ~start ~count =
    Alcotest.(check (list (pair string string))) name want (Kv_store.scan s ~start ~count)
  in
  check "all, ascending" [ ("a", "A"); ("b", "B"); ("d", "D") ] ~start:"" ~count:10;
  check "from a present key" [ ("b", "B"); ("d", "D") ] ~start:"b" ~count:10;
  check "from a deleted key" [ ("d", "D") ] ~start:"c" ~count:10;
  check "count bounds it" [ ("a", "A"); ("b", "B") ] ~start:"" ~count:2;
  check "zero count" [] ~start:"" ~count:0;
  check "past the last key" [] ~start:"e" ~count:10

let test_available_with_wedged_client () =
  let n = 4 and k = 2 in
  let s = Kv_store.create ~n ~k () in
  (* pid 0 "crashes" holding an admission slot. *)
  let _name = Kex_runtime.Kex_lock.Assignment.acquire (Kv_store.assignment s) ~pid:0 in
  let worker pid () =
    for i = 1 to 50 do
      Kv_store.set s ~pid ~key:(Printf.sprintf "p%d-%d" pid i) "v"
    done
  in
  let ds = List.init (n - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join ds;
  Alcotest.(check int) "all writes landed" (3 * 50) (Kv_store.size s)

(* [size] is a count kept by every write, no longer a walk of the map: it
   must match the committed bindings after each kind of write, including
   the ones that leave the count alone. *)
let test_size_tracks_every_write () =
  let s = Kv_store.create ~n:1 ~k:1 () in
  let check ctx =
    Alcotest.(check int) ctx (List.length (Kv_store.snapshot s)) (Kv_store.size s)
  in
  Kv_store.set s ~pid:0 ~key:"a" "1";
  check "set new";
  Kv_store.set s ~pid:0 ~key:"a" "2";
  check "set overwrite";
  ignore (Kv_store.delete s ~pid:0 ~key:"zz");
  check "delete absent";
  Kv_store.update s ~pid:0 ~key:"b" (fun _ -> Some "x");
  check "update inserts";
  Kv_store.update s ~pid:0 ~key:"nope" (fun _ -> None);
  check "update of absent to None";
  Kv_store.update s ~pid:0 ~key:"b" (fun _ -> None);
  check "update deletes";
  ignore (Kv_store.fetch_add s ~pid:0 ~key:"ctr" 3);
  ignore (Kv_store.fetch_add s ~pid:0 ~key:"ctr" 3);
  check "fetch_add";
  ignore
    (Kv_store.perform_batch s ~pid:0
       [ Kv_store.Set ("c", "1"); Kv_store.Delete "a"; Kv_store.Set ("d", "1"); Kv_store.Get "c" ]);
  check "batch";
  Alcotest.(check int) "three keys" 3 (Kv_store.size s)

(* Batched reads answer what single reads answer, in key order.  The
   batch across a table of shards is [Shard.read_many], tested in
   test_shard.ml. *)
let test_read_many () =
  let s = Kv_store.create ~n:1 ~k:1 () in
  List.iter (fun i -> Kv_store.set s ~pid:0 ~key:(Printf.sprintf "key%d" i) (string_of_int i)) [ 1; 2; 3 ];
  let keys = [| "key3"; "absent"; "key1"; "key3" |] in
  Alcotest.(check (array (option string)))
    "kv read_many" (Array.map (fun key -> Kv_store.read s ~key) keys) (Kv_store.read_many s keys)

(* Versions count operations, not commits: one 32-op batch is one
   admission and one commit, and it moves [operations], the versioned
   read and [apply_calls] by 32 each. *)
let test_batch_counts_operations () =
  let s = Kv_store.create ~n:1 ~k:1 () in
  Kv_store.set s ~pid:0 ~key:"seed" "0";
  let ops0 = Kv_store.operations s
  and version0 = Kv_store.read_version s
  and calls0 = Kv_store.apply_calls s in
  let results =
    Kv_store.perform_batch s ~pid:0 (List.init 32 (fun i -> Kv_store.Fetch_add ("ctr", i)))
  in
  List.iteri
    (fun i r ->
      if r <> Kv_store.New_value (i * (i + 1) / 2) then
        Alcotest.failf "op %d of the batch answered out of order" i)
    results;
  Alcotest.(check int) "operations" (ops0 + 32) (Kv_store.operations s);
  Alcotest.(check int) "version" (version0 + 32) (Kv_store.read_version s);
  Alcotest.(check int) "apply_calls" (calls0 + 32) (Kv_store.apply_calls s)

(* A staged image replaces the whole state in one operation: a binding the
   image lacks is gone, and size, bindings and version follow the image. *)
let test_install_replaces_state () =
  let s = Kv_store.create ~n:1 ~k:1 () in
  Kv_store.set s ~pid:0 ~key:"stale" "old";
  Kv_store.set s ~pid:0 ~key:"kept" "old";
  let image =
    Kv_store.stage
      (Kv_store.stage Kv_store.empty_image
         [ ("a", Some "1"); ("kept", Some "new"); ("b", Some "2") ])
      [ ("b", None); ("c", Some "3") ]
  in
  let ops0 = Kv_store.operations s and version0 = Kv_store.read_version s in
  Alcotest.(check bool) "installed" true
    (Kv_store.try_perform_batch s ~pid:0 [ Kv_store.Install image ] = Some [ Kv_store.Unit ]);
  let staged = [ ("a", "1"); ("c", "3"); ("kept", "new") ] in
  Alcotest.(check (option string)) "stale binding gone" None (Kv_store.read s ~key:"stale");
  Alcotest.(check int) "size" (List.length staged) (Kv_store.size s);
  Alcotest.(check (pair int (list (pair string string))))
    "read_versioned" (version0 + 1, staged) (Kv_store.read_versioned s);
  Alcotest.(check int) "one operation" (ops0 + 1) (Kv_store.operations s)

(* The install takes the no-wait entry: with all k slots held by other
   processes it is refused, and neither the state nor the version moves. *)
let test_install_refused_when_slots_held () =
  let k = 2 in
  let s = Kv_store.create ~n:(k + 1) ~k () in
  Kv_store.set s ~pid:0 ~key:"x" "1";
  let asg = Kv_store.assignment s in
  let held = List.init k (fun pid -> (pid, Kex_runtime.Kex_lock.Assignment.acquire asg ~pid)) in
  let before = Kv_store.read_versioned s in
  let image = Kv_store.stage Kv_store.empty_image [ ("y", Some "2") ] in
  Alcotest.(check bool) "refused" true
    (Kv_store.try_perform_batch s ~pid:k [ Kv_store.Install image ] = None);
  Alcotest.(check (pair int (list (pair string string))))
    "state and version unchanged" before (Kv_store.read_versioned s);
  List.iter (fun (pid, name) -> Kex_runtime.Kex_lock.Assignment.release asg ~pid ~name) held

(* One batch through the store's ordered pass answers and leaves exactly
   what its operations do one at a time (each a batch of one), and what a
   model folding them over Stdlib.Map does.  Keys repeat within a batch,
   with reads, deletes, closure updates and fetch-and-adds between the
   writes, and an occasional [Install] splits the batch; the batch moves
   [apply_calls] by its length. *)
module Q = QCheck2
module SM = Map.Make (String)

type update = Append | Clear | Keep | Toggle

type mop =
  | MSet of string * string
  | MGet of string
  | MDel of string
  | MUpd of string * update
  | MAdd of string * int
  | MInstall of (string * string) list

let show_mop = function
  | MSet (k, v) -> Printf.sprintf "set %s %S" k v
  | MGet k -> "get " ^ k
  | MDel k -> "del " ^ k
  | MUpd (k, u) ->
      Printf.sprintf "update %s %s" k
        (match u with Append -> "append" | Clear -> "clear" | Keep -> "keep" | Toggle -> "toggle")
  | MAdd (k, d) -> Printf.sprintf "add %s %d" k d
  | MInstall kvs -> "install [" ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "]"

let update_fn = function
  | Append -> fun v -> Some (Option.value v ~default:"" ^ "+")
  | Clear -> fun _ -> None
  | Keep -> fun v -> v
  | Toggle -> ( function None -> Some "t" | Some _ -> None)

let install kvs = List.fold_left (fun m (k, v) -> SM.add k v m) SM.empty kvs

let to_op = function
  | MSet (k, v) -> Kv_store.Set (k, v)
  | MGet k -> Kv_store.Get k
  | MDel k -> Kv_store.Delete k
  | MUpd (k, u) -> Kv_store.Update (k, update_fn u)
  | MAdd (k, d) -> Kv_store.Fetch_add (k, d)
  | MInstall kvs ->
      Kv_store.Install
        (Kv_store.stage Kv_store.empty_image (SM.fold (fun k v acc -> (k, Some v) :: acc) (install kvs) []))

let model_step m = function
  | MSet (k, v) -> (SM.add k v m, Kv_store.Unit)
  | MGet k -> (m, Kv_store.Value (SM.find_opt k m))
  | MDel k -> (SM.remove k m, Kv_store.Existed (SM.mem k m))
  | MUpd (k, u) -> (
      match update_fn u (SM.find_opt k m) with
      | Some v -> (SM.add k v m, Kv_store.Unit)
      | None -> (SM.remove k m, Kv_store.Unit))
  | MAdd (k, d) ->
      let cur =
        match SM.find_opt k m with
        | Some s -> Option.value (int_of_string_opt s) ~default:0
        | None -> 0
      in
      (SM.add k (string_of_int (cur + d)) m, Kv_store.New_value (cur + d))
  | MInstall kvs -> (install kvs, Kv_store.Unit)

let gen_batch_case =
  let open Q.Gen in
  let* nkeys = oneofl [ 3; 6; 40 ] in
  let key = map (Printf.sprintf "k%02d") (int_range 0 (nkeys - 1)) in
  let value = oneofl [ "1"; "7"; "-3"; "x"; "" ] in
  let op =
    frequency
      [ (6, map2 (fun k v -> MSet (k, v)) key value);
        (3, map (fun k -> MGet k) key);
        (3, map (fun k -> MDel k) key);
        (3, map2 (fun k u -> MUpd (k, u)) key (oneofl [ Append; Clear; Keep; Toggle ]));
        (4, map2 (fun k d -> MAdd (k, d)) key (int_range (-5) 5));
        (1, map (fun kvs -> MInstall kvs) (list_size (int_range 0 3) (pair key value))) ]
  in
  pair (list_size (int_range 0 20) (pair key value)) (list_size (int_range 0 48) op)

let prop_batch_equals_one_at_a_time =
  Q.Test.make ~name:"one batch apply = its operations one at a time" ~count:500
    ~print:(fun (init, ops) ->
      Printf.sprintf "init [%s]; batch [%s]"
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) init))
        (String.concat "; " (List.map show_mop ops)))
    gen_batch_case
    (fun (init, ops) ->
      let fresh () =
        let s = Kv_store.create ~n:1 ~k:1 () in
        ignore (Kv_store.perform_batch s ~pid:0 (List.map (fun (k, v) -> Kv_store.Set (k, v)) init));
        s
      in
      let batched = fresh () and single = fresh () in
      let kv_ops = List.map to_op ops in
      let calls0 = Kv_store.apply_calls batched in
      let batch_results = Kv_store.perform_batch batched ~pid:0 kv_ops in
      let calls = Kv_store.apply_calls batched - calls0 in
      let single_results =
        List.concat_map (fun op -> Kv_store.perform_batch single ~pid:0 [ op ]) kv_ops
      in
      let model, model_results =
        List.fold_left
          (fun (m, rs) op ->
            let m, r = model_step m op in
            (m, r :: rs))
          (List.fold_left (fun m (k, v) -> SM.add k v m) SM.empty init, [])
          ops
      in
      let model_results = List.rev model_results in
      batch_results = model_results
      && single_results = model_results
      && Kv_store.snapshot batched = SM.bindings model
      && Kv_store.snapshot single = SM.bindings model
      && Kv_store.size batched = SM.cardinal model
      && Kv_store.size single = SM.cardinal model
      && calls = List.length ops)

let suite =
  [ Helpers.tc "basic CRUD" test_basic_crud;
    Helpers.tc "size tracks every kind of write" test_size_tracks_every_write;
    Helpers.tc "read_many matches read" test_read_many;
    Helpers.tc "set overwrites" test_set_overwrites;
    Helpers.tc "update is a linearized RMW" test_update_atomic;
    Helpers.tc "fetch_add is a closure-free RMW" test_fetch_add;
    Helpers.tc "no lost updates under domains" test_concurrent_counters;
    Helpers.tc "re-executed updates commit exactly once" test_update_reexecuted_not_double_applied;
    Helpers.tc "available with a wedged client" test_available_with_wedged_client;
    Helpers.tc "wait-free read on a fully wedged store" test_read_wait_free_on_wedged_store;
    Helpers.tc "read sees every acknowledged write" test_read_sees_acknowledged_writes;
    Helpers.tc "scan is an ordered range read of one state" test_scan;
    Helpers.tc "a 32-op batch counts 32 operations" test_batch_counts_operations;
    Helpers.tc "an installed image replaces the state in one operation"
      test_install_replaces_state;
    Helpers.tc "the install is refused when every slot is held"
      test_install_refused_when_slots_held;
    QCheck_alcotest.to_alcotest prop_batch_equals_one_at_a_time ]
