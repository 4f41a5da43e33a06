(* The paper's headline methodology, live: a (k-1)-resilient shared counter
   for N processes, built from a wait-free k-process universal construction
   wrapped in (N,k)-assignment.

   One process crashes *in the middle of an operation* — the worst case: it
   holds a name forever and leaves a half-done announced operation.  The
   helpers inside the wait-free layer finish its operation, and the
   remaining k-1 slots keep the object available to everyone else.

   Run with: dune exec examples/resilient_counter.exe *)

let () =
  let n = 6 and k = 3 and per_worker = 400 in
  let apply s = function `Add d -> (s + d, s + d) in
  let counter =
    Kex_resilient.Resilient.create ~n ~k ~init:0 ~apply:(Kex_resilient.Universal.per_op apply) ()
  in
  (* pid 0 crashes mid-operation: it acquires a name, announces Add 10_000,
     and never takes another step. *)
  let dead_name =
    Kex_runtime.Kex_lock.Assignment.acquire (Kex_resilient.Resilient.assignment counter) ~pid:0
  in
  Kex_resilient.Universal.announce_only
    (Kex_resilient.Resilient.inner counter)
    ~tid:dead_name [ `Add 10_000 ];
  Printf.printf "pid 0 crashed mid-operation, holding name %d\n%!" dead_name;
  let worker pid () =
    for _ = 1 to per_worker do
      ignore (Kex_resilient.Resilient.perform counter ~pid (`Add 1))
    done
  in
  let domains = List.init (n - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  let expected = ((n - 1) * per_worker) + 10_000 in
  Printf.printf "operations linearized : %d\n" (Kex_resilient.Resilient.operations counter);
  Printf.printf "final value           : %d (expected %d)\n"
    (Kex_resilient.Resilient.read counter)
    expected;
  assert (Kex_resilient.Resilient.read counter = expected);
  print_endline "ok — the crashed operation was finished by helpers"
