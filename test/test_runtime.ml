(* The real-atomics (OCaml 5 domains) implementations.  These run on
   whatever cores the machine has — on a single core the spin loops still
   interleave via OS preemption, so sizes are kept modest. *)

open Kex_runtime

let algos = Kex_lock.all
let algo_name = Kex_lock.algo_name

(* ---------------------------- Atomic_ext ------------------------------- *)

let test_tas () =
  let b = Atomic.make 0 in
  Alcotest.(check bool) "first wins" true (Atomic_ext.test_and_set b);
  Alcotest.(check bool) "second loses" false (Atomic_ext.test_and_set b);
  Atomic.set b 0;
  Alcotest.(check bool) "wins after clear" true (Atomic_ext.test_and_set b)

let test_bounded_faa () =
  let x = Atomic.make 0 in
  Alcotest.(check int) "underflow returns old" 0
    (Atomic_ext.bounded_fetch_and_add x (-1) ~lo:0 ~hi:3);
  Alcotest.(check int) "unchanged" 0 (Atomic.get x);
  Alcotest.(check int) "add works" 0 (Atomic_ext.bounded_fetch_and_add x 1 ~lo:0 ~hi:3);
  Alcotest.(check int) "added" 1 (Atomic.get x);
  Atomic.set x 3;
  Alcotest.(check int) "overflow returns old" 3
    (Atomic_ext.bounded_fetch_and_add x 1 ~lo:0 ~hi:3);
  Alcotest.(check int) "capped" 3 (Atomic.get x)

(* ------------------- Direct instance vs simulator ---------------------- *)

(* [kexd] is correct only if the direct instance performs exactly the steps
   the simulator counts.  Each shared access of [Kexclusion.Figures] runs
   once through the simulator instance (its one step executed by
   [Runner.exec_step] on a [Memory] cell) and once on an [Atomic.t]: both
   must return the same result and leave the same value in the cell. *)
type access =
  | Read
  | Write of int
  | Faa of int
  | Bounded_faa of { d : int; lo : int; hi : int }
  | Cas of { expected : int; desired : int }
  | Tas
  | Swap of int

let show_access = function
  | Read -> "read"
  | Write v -> Printf.sprintf "write %d" v
  | Faa d -> Printf.sprintf "faa %+d" d
  | Bounded_faa { d; lo; hi } -> Printf.sprintf "bounded_faa %+d [%d..%d]" d lo hi
  | Cas { expected; desired } -> Printf.sprintf "cas %d->%d" expected desired
  | Tas -> "tas"
  | Swap v -> Printf.sprintf "swap %d" v

module Access (M : Kexclusion.Figures.MEMORY) = struct
  let int_of_bool m = M.bind m (fun b -> M.return (Bool.to_int b))

  let run cell = function
    | Read -> M.read cell
    | Write v -> M.bind (M.write cell v) (fun () -> M.return 0)
    | Faa d -> M.faa cell d
    | Bounded_faa { d; lo; hi } -> M.bounded_faa cell d ~lo ~hi
    | Cas { expected; desired } -> int_of_bool (M.cas cell ~expected ~desired)
    | Tas -> int_of_bool (M.tas cell)
    | Swap v -> M.swap cell v
end

module Sim_access = Access (Kexclusion.Simulated.Mem)
module Direct_access = Access (Direct.Mem)

(* Result and final cell value through the simulator: exactly one step. *)
let simulated init access =
  let mem = Kex_sim.Memory.create () in
  let cell = Kexclusion.Simulated.Mem.(cell (alloc mem ~label:"x" ~init 1) 0) in
  match Sim_access.run cell access with
  | Kex_sim.Op.Step (s, k) -> (
      match k (Kex_sim.Runner.exec_step mem s) with
      | Kex_sim.Op.Return r -> (r, Kex_sim.Memory.get mem cell)
      | _ -> Alcotest.failf "%s: more than one step" (show_access access))
  | _ -> Alcotest.failf "%s: not a single step" (show_access access)

let direct init access =
  let cell = Atomic.make init in
  let r = Direct_access.run cell access in
  (r, Atomic.get cell)

let gen_access =
  let open QCheck2.Gen in
  let value = int_range (-4) 4 in
  (* A bounded add whose result lies inside [lo..hi], above it or below it. *)
  let bounded init =
    let* d = int_range (-3) 3 and* a = int_range 0 3 and* b = int_range 0 3 in
    let r = init + d in
    map
      (fun (lo, hi) -> Bounded_faa { d; lo; hi })
      (oneofl [ (r - a, r + b); (r + 1 + a, r + 1 + a + b); (r - 1 - a - b, r - 1 - a) ])
  in
  let* init = value in
  let* access =
    oneof
      [ return Read;
        map (fun v -> Write v) value;
        map (fun d -> Faa d) (int_range (-3) 3);
        bounded init;
        map2 (fun expected desired -> Cas { expected; desired }) value value;
        return Tas;
        map (fun v -> Swap v) value ]
  in
  return (init, access)

let prop_direct_matches_simulator =
  QCheck2.Test.make ~name:"direct instance takes the simulator's steps" ~count:2000
    ~print:(fun (init, a) -> Printf.sprintf "cell %d, %s" init (show_access a))
    gen_access
    (fun (init, access) -> simulated init access = direct init access)

(* ------------------------------ Kex_lock ------------------------------- *)

let test_solo_each_algo () =
  List.iter
    (fun algo ->
      let lock = Kex_lock.create ~algo ~n:8 ~k:2 () in
      for _ = 1 to 20 do
        Kex_lock.acquire lock ~pid:3;
        Kex_lock.release lock ~pid:3
      done;
      Alcotest.(check int) (algo_name algo ^ " k") 2 (Kex_lock.k lock))
    algos

let test_pid_validation () =
  let lock = Kex_lock.create ~n:4 ~k:2 () in
  Alcotest.check_raises "negative pid" (Invalid_argument "Kex_lock: pid -1 out of range 0..3")
    (fun () -> Kex_lock.acquire lock ~pid:(-1));
  Alcotest.check_raises "pid too big" (Invalid_argument "Kex_lock: pid 4 out of range 0..3")
    (fun () -> Kex_lock.acquire lock ~pid:4)

let test_create_validation () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Kex_lock.create: k must be positive")
    (fun () -> ignore (Kex_lock.create ~n:4 ~k:0 ()));
  Alcotest.check_raises "n = 0" (Invalid_argument "Kex_lock.create: n must be positive")
    (fun () -> ignore (Kex_lock.create ~n:0 ~k:1 ()))

let test_with_lock_releases_on_exception () =
  List.iter
    (fun algo ->
      let lock = Kex_lock.create ~algo ~n:2 ~k:1 () in
      (try Kex_lock.with_lock lock ~pid:0 (fun () -> failwith "boom") with Failure _ -> ());
      (* If the slot leaked, this would hang; acquire again to prove it didn't. *)
      Kex_lock.with_lock lock ~pid:1 (fun () -> ()))
    algos

(* The no-wait entry, for every algorithm: with k holders inside,
   [try_acquire] refuses without waiting (a wait would hang this
   single-domain section) and leaves the lock as it found it, so a
   blocking acquirer gets in the moment one holder leaves; then a
   multi-domain mix of blocking and try holders, with k-1 holders parked
   for the whole run, never puts more than k in the critical section and
   every blocking acquirer finishes. *)
let test_try_acquire () =
  let deadline_passed t0 = Unix.gettimeofday () -. t0 > 10. in
  List.iter
    (fun algo ->
      let ctx = algo_name algo in
      let n = 6 and k = 2 in
      let lock = Kex_lock.create ~algo ~n ~k () in
      for pid = 0 to k - 1 do
        Kex_lock.acquire lock ~pid
      done;
      for _ = 1 to 50 do
        for pid = k to n - 1 do
          if Kex_lock.try_acquire lock ~pid then
            Alcotest.failf "%s: pid %d admitted past %d holders" ctx pid k
        done
      done;
      let inside = Atomic.make false in
      let waiter =
        Domain.spawn (fun () ->
            Kex_lock.acquire lock ~pid:(n - 1);
            Atomic.set inside true;
            Kex_lock.release lock ~pid:(n - 1))
      in
      Unix.sleepf 0.05;
      Alcotest.(check bool) (ctx ^ ": blocking acquirer waits while full") false (Atomic.get inside);
      Kex_lock.release lock ~pid:0;
      let t0 = Unix.gettimeofday () in
      while (not (Atomic.get inside)) && not (deadline_passed t0) do
        Domain.cpu_relax ()
      done;
      if not (Atomic.get inside) then
        Alcotest.failf "%s: the aborted tries left a slot stuck" ctx;
      Domain.join waiter;
      Kex_lock.release lock ~pid:1;
      (* Idle again: exactly k tries get in. *)
      let admitted = List.filter (fun pid -> Kex_lock.try_acquire lock ~pid) [ 0; 1; 2 ] in
      Alcotest.(check (list int)) (ctx ^ ": k tries admitted when idle") [ 0; 1 ] admitted;
      List.iter (fun pid -> Kex_lock.release lock ~pid) admitted;
      (* The mix: pid 0 parked inside, pids 1-2 blocking, pids 3-4 trying. *)
      let in_cs = Atomic.make 0 and over = Atomic.make 0 and finished = Atomic.make 0 in
      let critical () =
        if 1 + Atomic.fetch_and_add in_cs 1 > k then Atomic.incr over;
        Domain.cpu_relax ();
        Atomic.decr in_cs
      in
      Kex_lock.acquire lock ~pid:0;
      Atomic.incr in_cs;
      let blocking pid () =
        for _ = 1 to 100 do
          Kex_lock.with_lock lock ~pid critical
        done;
        Atomic.incr finished
      in
      let trying pid () =
        for _ = 1 to 200 do
          if Kex_lock.try_acquire lock ~pid then begin
            critical ();
            Kex_lock.release lock ~pid
          end
        done
      in
      let ds =
        List.map Domain.spawn [ blocking 1; blocking 2; trying 3; trying 4 ]
      in
      List.iter Domain.join ds;
      Atomic.decr in_cs;
      Kex_lock.release lock ~pid:0;
      Alcotest.(check int) (ctx ^ ": never more than k inside") 0 (Atomic.get over);
      Alcotest.(check int) (ctx ^ ": every blocking acquirer finished") 2 (Atomic.get finished))
    algos

(* Multi-domain stress: k-exclusion must hold under real parallelism (or
   preemptive interleaving on one core). *)
let stress_exclusion algo ~n ~k ~iters () =
  let lock = Kex_lock.create ~algo ~n ~k () in
  let in_cs = Atomic.make 0 in
  let max_seen = Atomic.make 0 in
  let violations = Atomic.make 0 in
  let bump_max v =
    let rec go () =
      let m = Atomic.get max_seen in
      if v > m && not (Atomic.compare_and_set max_seen m v) then go ()
    in
    go ()
  in
  let worker pid () =
    for _ = 1 to iters do
      Kex_lock.acquire lock ~pid;
      let now = 1 + Atomic.fetch_and_add in_cs 1 in
      bump_max now;
      if now > k then ignore (Atomic.fetch_and_add violations 1);
      Domain.cpu_relax ();
      ignore (Atomic.fetch_and_add in_cs (-1));
      Kex_lock.release lock ~pid
    done
  in
  let domains = List.init n (fun pid -> Domain.spawn (worker pid)) in
  List.iter Domain.join domains;
  Alcotest.(check int) (algo_name algo ^ ": no over-admission") 0 (Atomic.get violations);
  Alcotest.(check bool) (algo_name algo ^ ": at least one admission") true (Atomic.get max_seen >= 1)

let stress_cases =
  List.map
    (fun algo ->
      Helpers.tc
        (Printf.sprintf "%s: k-exclusion under domains" (algo_name algo))
        (stress_exclusion algo ~n:4 ~k:2 ~iters:150))
    algos

let test_assignment_names_unique () =
  let asg = Kex_lock.Assignment.create ~n:4 ~k:2 () in
  let holders = Array.init 2 (fun _ -> Atomic.make false) in
  let violations = Atomic.make 0 in
  let worker pid () =
    for _ = 1 to 150 do
      Kex_lock.Assignment.with_name asg ~pid (fun name ->
          if not (Atomic.compare_and_set holders.(name) false true) then
            ignore (Atomic.fetch_and_add violations 1)
          else begin
            Domain.cpu_relax ();
            Atomic.set holders.(name) false
          end)
    done
  in
  let domains = List.init 4 (fun pid -> Domain.spawn (worker pid)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no name collisions" 0 (Atomic.get violations)

let test_dead_holders_tolerated () =
  (* k-1 holders sit in the critical section for the whole test — crashed,
     as far as the protocol can tell.  The live workers must keep making
     progress through the remaining slot. *)
  let n = 5 and k = 3 in
  let lock = Kex_lock.create ~n ~k () in
  let release_the_dead = Atomic.make false in
  let dead pid () =
    Kex_lock.acquire lock ~pid;
    while not (Atomic.get release_the_dead) do
      Domain.cpu_relax ()
    done;
    Kex_lock.release lock ~pid
  in
  let done_count = Atomic.make 0 in
  let live pid () =
    for _ = 1 to 60 do
      Kex_lock.with_lock lock ~pid (fun () -> Domain.cpu_relax ())
    done;
    ignore (Atomic.fetch_and_add done_count 1)
  in
  let dead_domains = List.init (k - 1) (fun pid -> Domain.spawn (dead pid)) in
  let live_domains = List.init (n - (k - 1)) (fun i -> Domain.spawn (live (k - 1 + i))) in
  List.iter Domain.join live_domains;
  Alcotest.(check int) "all live workers finished" (n - (k - 1)) (Atomic.get done_count);
  Atomic.set release_the_dead true;
  List.iter Domain.join dead_domains

let test_renaming_direct () =
  let r = Direct.renaming 3 ~k:3 in
  let a = Direct.rename r in
  let b = Direct.rename r in
  let c = Direct.rename r in
  Alcotest.(check (list int)) "all names handed out" [ 0; 1; 2 ] (List.sort compare [ a; b; c ]);
  Direct.unname r ~name:b;
  Alcotest.(check int) "released name reused" b (Direct.rename r)

(* [Sync.with_lock], the combinator every mutex in lib/ and bin/ is taken
   through: held inside the body, and free again after the body returns
   and after it raises (the exception still reaches the caller). *)
let test_sync_with_lock_releases () =
  let m = Mutex.create () in
  let v =
    Kex_sync.Sync.with_lock m (fun () ->
        Alcotest.(check bool) "held inside the body" false (Mutex.try_lock m);
        7)
  in
  Alcotest.(check int) "body's value returned" 7 v;
  Alcotest.(check bool) "free after return" true (Mutex.try_lock m);
  Mutex.unlock m;
  Alcotest.check_raises "body's exception re-raised" (Failure "boom") (fun () ->
      Kex_sync.Sync.with_lock m (fun () -> failwith "boom"));
  Alcotest.(check bool) "free after raise" true (Mutex.try_lock m);
  Mutex.unlock m

let suite =
  [ Helpers.tc "test-and-set" test_tas;
    Helpers.tc "bounded fetch-and-add saturates" test_bounded_faa;
    Helpers.tc "every algorithm works solo" test_solo_each_algo;
    Helpers.tc "pid range validation" test_pid_validation;
    Helpers.tc "create validation" test_create_validation;
    Helpers.tc "with_lock releases on exception" test_with_lock_releases_on_exception ]
  @ stress_cases
  @ [ Helpers.tc "assignment names unique under domains" test_assignment_names_unique;
      Helpers.tc "k-1 dead holders tolerated" test_dead_holders_tolerated;
      Helpers.tc "renaming hands out and reuses names" test_renaming_direct;
      Helpers.tc "try_acquire refuses without waiting and leaves no trace" test_try_acquire;
      Helpers.tc "Sync.with_lock releases on return and on raise" test_sync_with_lock_releases;
      QCheck_alcotest.to_alcotest prop_direct_matches_simulator ]
