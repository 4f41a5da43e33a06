open Import
open Op

(* Layout: x | head | tail | slots[0..n-1].  The queue holds pid+1 (0 means
   empty); head and tail increase monotonically and index modulo n.

   Every shared access below sits inside an [atomic_block], so each block is
   charged per cell of its footprint by the cost model: under CC the
   "element" poll spins on cached copies of head/tail/slots until an
   enqueue/dequeue invalidates them (cost grows with contention), under DSM
   every poll of these unowned cells is remote (cost grows with waiting
   time) — the two faces of Table 1's unbounded rows. *)
let create mem ~n ~k =
  let x = Memory.alloc mem ~label:"fig1.X" ~init:k 1 in
  let head = Memory.alloc mem ~label:"fig1.head" ~init:0 1 in
  let tail = Memory.alloc mem ~label:"fig1.tail" ~init:0 1 in
  let slots = Memory.alloc mem ~label:"fig1.slots" ~init:0 n in
  let entry ~pid =
    (* Statement 1: < if faa(X,-1) <= 0 then Enqueue(p, Q) > *)
    let* waited =
      atomic_block "faa-enqueue" (fun ~read ~write ->
          let xv = read x in
          write x (xv - 1);
          if xv <= 0 then begin
            let t = read tail in
            write (slots + (t mod n)) (pid + 1);
            write tail (t + 1);
            1
          end
          else 0)
    in
    if waited = 1 then begin
      (* Statement 2: busy-wait on Element(p, Q). *)
      let rec poll () =
        let* still_queued =
          atomic_block "element" (fun ~read ~write:_ ->
              let h = read head and t = read tail in
              let rec find i =
                if i >= t then 0 else if read (slots + (i mod n)) = pid + 1 then 1 else find (i + 1)
              in
              find h)
        in
        if still_queued = 1 then poll () else return ()
      in
      poll ()
    end
    else return ()
  in
  let exit ~pid:_ =
    (* Statement 3: < Dequeue(Q); faa(X, 1) > *)
    let* _ =
      atomic_block "dequeue-faa" (fun ~read ~write ->
          let h = read head and t = read tail in
          if h < t then begin
            write (slots + (h mod n)) 0;
            write head (h + 1)
          end;
          write x (read x + 1);
          0)
    in
    return ()
  in
  { Protocol.name = Printf.sprintf "fig1-queue[n=%d,k=%d]" n k; entry; exit;
    try_entry = (fun ~pid:_ -> return false) }
