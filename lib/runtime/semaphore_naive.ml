let create ~n:_ ~k =
  let x = Atomic.make k in
  let rec acquire () =
    let v = Atomic.get x in
    if v > 0 then begin
      if not (Atomic.compare_and_set x v (v - 1)) then begin
        Domain.cpu_relax ();
        acquire ()
      end
    end
    else begin
      Domain.cpu_relax ();
      acquire ()
    end
  in
  (* One CAS attempt: a lost race counts as a refusal. *)
  let try_acquire () =
    let v = Atomic.get x in
    v > 0 && Atomic.compare_and_set x v (v - 1)
  in
  { Direct.name = Printf.sprintf "naive-semaphore[k=%d]" k;
    entry = (fun ~pid:_ -> acquire ());
    exit = (fun ~pid:_ -> ignore (Atomic.fetch_and_add x 1));
    try_entry = (fun ~pid:_ -> try_acquire ()) }
