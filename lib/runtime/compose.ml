type block = k:int -> inner:Protocol.t -> Protocol.t

let cc_block : block = fun ~k ~inner -> Cc_block.create ~k ~inner
let fig6_block ~universe : block = fun ~k ~inner -> Dsm_block.create ~universe ~k ~inner
let ceil_div a b = (a + b - 1) / b

let inductive_of ~block ~n ~k =
  let rec build k = if k >= n then Protocol.trivial else block ~k ~inner:(build (k + 1)) in
  { (build k) with Protocol.name = Printf.sprintf "inductive[n=%d,k=%d]" n k }

let tree_of ~block ~universe:_ ~n ~k =
  if k >= n then Protocol.trivial
  else begin
    let rec levels m acc = if m <= 1 then acc else levels (ceil_div m 2) (acc + 1) in
    let nlevels = levels (ceil_div n (2 * k)) 1 in
    let instances =
      Array.init nlevels (fun l ->
          Array.init
            (ceil_div (ceil_div n (2 * k)) (1 lsl l))
            (fun _ -> inductive_of ~block ~n:(2 * k) ~k))
    in
    let index pid l = pid / (2 * k) / (1 lsl l) in
    let entry pid =
      for l = 0 to nlevels - 1 do
        instances.(l).(index pid l).Protocol.entry pid
      done
    in
    let exit pid =
      for l = nlevels - 1 downto 0 do
        instances.(l).(index pid l).Protocol.exit pid
      done
    in
    (* A refusal at level [l] leaves levels [l-1 .. 0] in reverse order. *)
    let try_entry pid =
      let rec climb l =
        if l = nlevels then true
        else begin
          let node = instances.(l).(index pid l) in
          if not (node.Protocol.try_entry pid) then false
          else if climb (l + 1) then true
          else begin
            node.Protocol.exit pid;
            false
          end
        end
      in
      climb 0
    in
    { Protocol.name = Printf.sprintf "tree[n=%d,k=%d]" n k; entry; exit; try_entry }
  end

let fast_path_of ~block ~universe ~k ~slow =
  let x = Atomic.make k in
  let final = inductive_of ~block ~n:(2 * k) ~k in
  let took_slow = Array.make universe false in
  let entry pid =
    took_slow.(pid) <- false;
    (* 1 *)
    if Atomic_ext.bounded_fetch_and_add x (-1) ~lo:0 ~hi:k = 0 then begin
      (* 2 *)
      took_slow.(pid) <- true;
      (* 3 *)
      slow.Protocol.entry pid (* 4 *)
    end;
    final.Protocol.entry pid
    (* 5 *)
  in
  let exit pid =
    final.Protocol.exit pid;
    (* 6 *)
    if took_slow.(pid) then slow.Protocol.exit pid (* 7-8 *)
    else ignore (Atomic_ext.bounded_fetch_and_add x 1 ~lo:0 ~hi:k)
    (* 9 *)
  in
  (* No patience: the gate refuses at 0 instead of routing to the slow
     path, and a refusal in the final stage gives the gate slot back. *)
  let try_entry pid =
    took_slow.(pid) <- false;
    if Atomic_ext.bounded_fetch_and_add x (-1) ~lo:0 ~hi:k = 0 then false
    else if final.Protocol.try_entry pid then true
    else begin
      ignore (Atomic_ext.bounded_fetch_and_add x 1 ~lo:0 ~hi:k);
      false
    end
  in
  { Protocol.name = Printf.sprintf "fastpath[k=%d]" k; entry; exit; try_entry }

let fast_path_tree_of ~block ~universe ~n ~k =
  if k >= n then Protocol.trivial
  else
    { (fast_path_of ~block ~universe ~k ~slow:(tree_of ~block ~universe ~n ~k)) with
      Protocol.name = Printf.sprintf "fastpath-tree[n=%d,k=%d]" n k }

let graceful_of ~block ~universe ~n ~k =
  let rec build n =
    if n <= 2 * k then inductive_of ~block ~n ~k
    else fast_path_of ~block ~universe ~k ~slow:(build (n - k))
  in
  if k >= n then Protocol.trivial
  else { (build n) with Protocol.name = Printf.sprintf "graceful[n=%d,k=%d]" n k }

let inductive ~n ~k = inductive_of ~block:cc_block ~n ~k
let tree ~universe ~n ~k = tree_of ~block:cc_block ~universe ~n ~k
let fast_path ~universe ~k ~slow = fast_path_of ~block:cc_block ~universe ~k ~slow
let fast_path_tree ~universe ~n ~k = fast_path_tree_of ~block:cc_block ~universe ~n ~k
let graceful ~universe ~n ~k = graceful_of ~block:cc_block ~universe ~n ~k
