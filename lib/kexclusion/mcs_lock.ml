open Import
open Op

(* Queue node encoding: [tail] and [next] cells hold pid+1, with 0 for nil.
   [locked.(p)] and [next.(p)] live in process p's memory partition, so all
   busy-waiting is local under the DSM model too. *)
let create mem ~n =
  let tail = Memory.alloc mem ~label:"mcs.tail" ~init:0 1 in
  let locked = Array.init n (fun pid -> Memory.alloc mem ~owner:pid ~label:(Printf.sprintf "mcs.locked[p%d]" pid) ~init:0 1) in
  let next = Array.init n (fun pid -> Memory.alloc mem ~owner:pid ~label:(Printf.sprintf "mcs.next[p%d]" pid) ~init:0 1) in
  let rec await_nonzero a =
    let* v = read a in
    if v = 0 then await_nonzero a else return v
  in
  let entry ~pid =
    let* () = write next.(pid) 0 in
    let* pred = swap tail (pid + 1) in
    if pred <> 0 then
      let* () = write locked.(pid) 1 in
      let* () = write next.(pred - 1) (pid + 1) in
      await_eq locked.(pid) 0
    else return ()
  in
  let exit ~pid =
    let* successor = read next.(pid) in
    if successor = 0 then
      let* released = cas tail ~expected:(pid + 1) ~desired:0 in
      if released then return ()
      else
        (* A successor is in the middle of linking itself in: wait for the
           link, then hand over. *)
        let* successor = await_nonzero next.(pid) in
        write locked.(successor - 1) 0
    else write locked.(successor - 1) 0
  in
  { Protocol.name = Printf.sprintf "mcs[n=%d]" n; entry; exit;
    try_entry = (fun ~pid:_ -> return false) }
