type t = {
  tail : int Atomic.t;  (* pid+1, 0 = nil *)
  locked : bool Atomic.t array;
  next : int Atomic.t array;
}

let create ~n =
  { tail = Atomic.make 0;
    locked = Array.init n (fun _ -> Atomic.make false);
    next = Array.init n (fun _ -> Atomic.make 0) }

let acquire t ~pid =
  Atomic.set t.next.(pid) 0;
  let pred = Atomic.exchange t.tail (pid + 1) in
  if pred <> 0 then begin
    Atomic.set t.locked.(pid) true;
    Atomic.set t.next.(pred - 1) (pid + 1);
    while Atomic.get t.locked.(pid) do
      Domain.cpu_relax ()
    done
  end

let release t ~pid =
  let successor = Atomic.get t.next.(pid) in
  if successor = 0 then begin
    if not (Atomic.compare_and_set t.tail (pid + 1) 0) then begin
      (* a successor is linking itself in *)
      while Atomic.get t.next.(pid) = 0 do
        Domain.cpu_relax ()
      done;
      Atomic.set t.locked.(Atomic.get t.next.(pid) - 1) false
    end
  end
  else Atomic.set t.locked.(successor - 1) false

let with_lock t ~pid f =
  acquire t ~pid;
  match f () with
  | v ->
      release t ~pid;
      v
  | exception e ->
      release t ~pid;
      raise e
