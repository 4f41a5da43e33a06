(* Statement numbers follow Figure 2 of the paper. *)
let create ~k ~inner =
  let x = Atomic.make k in
  let q = Atomic.make (-1) in
  let entry pid =
    inner.Protocol.entry pid;
    (* 1 *)
    if Atomic.fetch_and_add x (-1) = 0 then begin
      (* 2 *)
      Atomic.set q pid;
      (* 3 *)
      if Atomic.get x < 0 then
        (* 4 *)
        while Atomic.get q = pid do
          (* 5 *)
          Domain.cpu_relax ()
        done
    end
  in
  let exit pid =
    ignore (Atomic.fetch_and_add x 1);
    (* 6 *)
    Atomic.set q pid;
    (* 7 *)
    inner.Protocol.exit pid
    (* 8 *)
  in
  (* No patience: where statement 2 would start a wait, run statements 6-8
     instead.  Statement 7's write releases a process that queued behind
     this one while a holder left, so the abort strands nobody. *)
  let try_entry pid =
    if not (inner.Protocol.try_entry pid) then false
    else if Atomic.fetch_and_add x (-1) <> 0 then true
    else begin
      exit pid;
      false
    end
  in
  { Protocol.name = Printf.sprintf "fig2[k=%d]" k; entry; exit; try_entry }
