(* Statement numbers follow Figure 6 of the paper; see lib/kexclusion's
   simulator version for the annotated transcription. *)
let create ~universe ~k ~inner =
  let slots = k + 2 in
  let x = Atomic.make k in
  let q = Atomic.make 0 (* encoded pid * slots + loc *) in
  let p_bits = Array.init (universe * slots) (fun _ -> Atomic.make false) in
  let r = Array.init (universe * slots) (fun _ -> Atomic.make 0) in
  (* [last] is private to each pid (disjoint indices). *)
  let last = Array.make universe 0 in
  let entry pid =
    inner.Protocol.entry pid;
    if Atomic.fetch_and_add x (-1) = 0 then begin
      (* 3-5: pick a spin location whose R counter is clear *)
      let loc = ref ((last.(pid) + 1) mod slots) in
      while Atomic.get r.((pid * slots) + !loc) <> 0 do
        loc := (!loc + 1) mod slots
      done;
      let mine = (pid * slots) + !loc in
      Atomic.set p_bits.(mine) false;
      (* 6 *)
      let u = Atomic.get q in
      (* 7 *)
      ignore (Atomic.fetch_and_add r.(u) 1);
      (* 8 *)
      if Atomic.get q = u then begin
        (* 9 *)
        Atomic.set p_bits.(u) true;
        (* 10 *)
        if Atomic.compare_and_set q u mine then begin
          (* 11 *)
          last.(pid) <- !loc;
          (* 12 *)
          if Atomic.get x < 0 then
            (* 13 *)
            while not (Atomic.get p_bits.(mine)) do
              (* 14 *)
              Domain.cpu_relax ()
            done
        end
      end;
      ignore (Atomic.fetch_and_add r.(u) (-1)) (* 15 *)
    end
  in
  let exit pid =
    ignore (Atomic.fetch_and_add x 1);
    (* 16 *)
    let u = Atomic.get q in
    (* 17 *)
    ignore (Atomic.fetch_and_add r.(u) 1);
    (* 18 *)
    if Atomic.get q = u then (* 19 *) Atomic.set p_bits.(u) true (* 20 *);
    ignore (Atomic.fetch_and_add r.(u) (-1));
    (* 21 *)
    inner.Protocol.exit pid
    (* 22 *)
  in
  (* No patience: where statement 2 would start a wait, run statements
     16-22 instead; statement 20 releases whoever queued behind us. *)
  let try_entry pid =
    if not (inner.Protocol.try_entry pid) then false
    else if Atomic.fetch_and_add x (-1) <> 0 then true
    else begin
      exit pid;
      false
    end
  in
  { Protocol.name = Printf.sprintf "fig6[k=%d]" k; entry; exit; try_entry }
