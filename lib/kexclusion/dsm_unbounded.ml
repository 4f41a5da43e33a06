open Import
open Op

(* Statement numbers in comments refer to Figure 5 of the paper.  A "spin
   location" is a dynamically allocated cell owned by the waiting process;
   [Q] holds the address of the location of the currently-waiting process. *)
let create mem ~n:_ ~k ~inner =
  let x = Memory.alloc mem ~label:"fig5.X" ~init:k 1 in
  (* Q initially points at a dummy location, the paper's (0, 0). *)
  let dummy = Memory.alloc mem ~owner:0 ~label:"fig5.dummy" ~init:0 1 in
  let q = Memory.alloc mem ~label:"fig5.Q" ~init:dummy 1 in
  let entry ~pid =
    let* () = inner.Protocol.entry ~pid in
    (* 1 *)
    let* slots = faa x (-1) in
    (* 2 *)
    if slots = 0 then begin
      (* 3: use a spin location never used before *)
      let next = Memory.alloc mem ~owner:pid ~label:"fig5.spin" ~init:0 1 in
      let* () = write next 0 in
      (* 4: initialize spin location *)
      let* v = read q in
      (* 5: get current spin location *)
      let* () = write v 1 in
      (* 6: release currently spinning process *)
      let* swapped = cas q ~expected:v ~desired:next in
      (* 7 *)
      if swapped then
        let* xv = read x in
        (* 8: still no slots available? *)
        if xv < 0 then await_eq next 1 (* 9: wait until released *) else return ()
      else return ()
    end
    else return ()
  in
  let exit ~pid =
    let* _ = faa x 1 in
    (* 10: release a slot *)
    let* v = read q in
    (* 11: get current spin location *)
    let* () = write v 1 in
    (* 12: release spinning process *)
    inner.Protocol.exit ~pid
    (* 13 *)
  in
  (* No patience: statements 10-13 run where statement 2 would start a
     wait; statement 12 releases whoever queued behind us. *)
  { Protocol.name = Printf.sprintf "fig5[k=%d]" k;
    entry;
    exit;
    try_entry = Simulated.no_wait ~inner ~x ~exit }
