open Import
open Op

let create mem ~n ~k =
  let choosing = Memory.alloc mem ~label:"bakery.choosing" ~init:0 n in
  let number = Memory.alloc mem ~label:"bakery.number" ~init:0 n in
  (* (ticket, pid) pairs ordered lexicographically, Lamport-style. *)
  let precedes (t1, p1) (t2, p2) = t1 < t2 || (t1 = t2 && p1 < p2) in
  let entry ~pid =
    let* () = write (choosing + pid) 1 in
    let rec scan_max q m =
      if q >= n then return m
      else
        let* v = read (number + q) in
        scan_max (q + 1) (max m v)
    in
    let* m = scan_max 0 0 in
    let ticket = m + 1 in
    let* () = write (number + pid) ticket in
    let* () = write (choosing + pid) 0 in
    (* Wait until fewer than k processes precede us.  A process observed
       while choosing is counted as a possible predecessor; re-scan until the
       count drops below k. *)
    let rec wait () =
      let rec count q acc =
        if q >= n then return acc
        else if q = pid then count (q + 1) acc
        else
          let* c = read (choosing + q) in
          if c = 1 then count (q + 1) (acc + 1)
          else
            let* t = read (number + q) in
            if t <> 0 && precedes (t, q) (ticket, pid) then count (q + 1) (acc + 1)
            else count (q + 1) acc
      in
      let* ahead = count 0 0 in
      if ahead < k then return () else wait ()
    in
    wait ()
  in
  let exit ~pid = write (number + pid) 0 in
  { Protocol.name = Printf.sprintf "bakery[n=%d,k=%d]" n k; entry; exit;
    try_entry = (fun ~pid:_ -> return false) }
