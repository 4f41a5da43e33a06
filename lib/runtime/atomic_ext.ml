let test_and_set c = Atomic.exchange c 1 = 0

let rec bounded_fetch_and_add x d ~lo ~hi =
  let v = Atomic.get x in
  let v' = v + d in
  if v' < lo || v' > hi then v
  else if Atomic.compare_and_set x v v' then v
  else begin
    Domain.cpu_relax ();
    bounded_fetch_and_add x d ~lo ~hi
  end
