type algo = Naive | Inductive | Tree | Fast_path | Graceful | Dsm_fast_path

let all = [ Naive; Inductive; Tree; Fast_path; Graceful; Dsm_fast_path ]

let algo_name = function
  | Naive -> "naive"
  | Inductive -> "inductive"
  | Tree -> "tree"
  | Fast_path -> "fastpath"
  | Graceful -> "graceful"
  | Dsm_fast_path -> "dsm-fastpath"

let algo_of_string s = List.find_opt (fun a -> String.equal (algo_name a) s) all

type t = { protocol : Direct.protocol; n : int; k : int }

let create ?(algo = Fast_path) ~n ~k () =
  if k <= 0 then invalid_arg "Kex_lock.create: k must be positive";
  if n <= 0 then invalid_arg "Kex_lock.create: n must be positive";
  (* The context is the process count: it sizes every private variable. *)
  let protocol =
    match algo with
    | Naive -> Semaphore_naive.create ~n ~k
    | Inductive -> Direct.inductive n ~block:Direct.fig2 ~n ~k
    | Tree -> Direct.tree n ~block:Direct.fig2 ~n ~k
    | Fast_path -> Direct.fast_path_tree n ~block:Direct.fig2 ~n ~k
    | Graceful -> Direct.graceful n ~block:Direct.fig2 ~n ~k
    | Dsm_fast_path -> Direct.fast_path_tree n ~block:Direct.fig6 ~n ~k
  in
  { protocol; n; k }

let check_pid t pid =
  if pid < 0 || pid >= t.n then
    invalid_arg (Printf.sprintf "Kex_lock: pid %d out of range 0..%d" pid (t.n - 1))

let acquire t ~pid =
  check_pid t pid;
  t.protocol.entry ~pid

let try_acquire t ~pid =
  check_pid t pid;
  t.protocol.try_entry ~pid

let release t ~pid =
  check_pid t pid;
  t.protocol.exit ~pid

let with_lock t ~pid f =
  acquire t ~pid;
  match f () with
  | v ->
      release t ~pid;
      v
  | exception e ->
      release t ~pid;
      raise e

let name t = t.protocol.name
let k t = t.k
let n t = t.n

module Assignment = struct
  type nonrec t = { lock : t; named : Direct.named }

  let create ?algo ~n ~k () =
    let lock = create ?algo ~n ~k () in
    { lock; named = Direct.assignment lock.n ~kex:lock.protocol ~k:lock.k }

  let acquire t ~pid =
    check_pid t.lock pid;
    t.named.acquire ~pid

  let try_acquire t ~pid =
    check_pid t.lock pid;
    t.named.try_acquire ~pid

  let release t ~pid ~name =
    check_pid t.lock pid;
    t.named.release ~pid ~name

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
