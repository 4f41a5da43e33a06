type algo = Naive | Inductive | Tree | Fast_path | Graceful | Dsm_fast_path

type t = { protocol : Protocol.t; n : int; k : int }

let create ?(algo = Fast_path) ~n ~k () =
  if k <= 0 then invalid_arg "Kex_lock.create: k must be positive";
  if n <= 0 then invalid_arg "Kex_lock.create: n must be positive";
  let protocol =
    match algo with
    | Naive -> Semaphore_naive.create ~n ~k
    | Inductive -> Compose.inductive ~n ~k
    | Tree -> Compose.tree ~universe:n ~n ~k
    | Fast_path -> Compose.fast_path_tree ~universe:n ~n ~k
    | Graceful -> Compose.graceful ~universe:n ~n ~k
    | Dsm_fast_path ->
        Compose.fast_path_tree_of ~block:(Compose.fig6_block ~universe:n) ~universe:n ~n ~k
  in
  { protocol; n; k }

let check_pid t pid =
  if pid < 0 || pid >= t.n then
    invalid_arg (Printf.sprintf "Kex_lock: pid %d out of range 0..%d" pid (t.n - 1))

let acquire t ~pid =
  check_pid t pid;
  t.protocol.Protocol.entry pid

let try_acquire t ~pid =
  check_pid t pid;
  t.protocol.Protocol.try_entry pid

let release t ~pid =
  check_pid t pid;
  t.protocol.Protocol.exit pid

let with_lock t ~pid f =
  acquire t ~pid;
  match f () with
  | v ->
      release t ~pid;
      v
  | exception e ->
      release t ~pid;
      raise e

let name t = t.protocol.Protocol.name
let k t = t.k
let n t = t.n

module Assignment = struct
  type nonrec t = { lock : t; renaming : Renaming.t }

  let of_lock lock = { lock; renaming = Renaming.create ~k:lock.k }
  let create ?algo ~n ~k () = of_lock (create ?algo ~n ~k ())

  let acquire t ~pid =
    acquire t.lock ~pid;
    Renaming.acquire t.renaming

  let try_acquire t ~pid =
    if try_acquire t.lock ~pid then Some (Renaming.acquire t.renaming) else None

  let release t ~pid ~name =
    Renaming.release t.renaming ~name;
    release t.lock ~pid

  let run_named t ~pid ~name f =
    match f name with
    | v ->
        release t ~pid ~name;
        v
    | exception e ->
        release t ~pid ~name;
        raise e

  let with_name t ~pid f = run_named t ~pid ~name:(acquire t ~pid) f

  let try_with_name t ~pid f =
    Option.map (fun name -> run_named t ~pid ~name f) (try_acquire t ~pid)

  let k t = t.lock.k
end
