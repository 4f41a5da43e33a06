type ('s, 'op, 'r) t = {
  assignment : Kex_runtime.Kex_lock.Assignment.t;
  obj : ('s, 'op, 'r) Universal.t;
  n : int;
  k : int;
}

let create ?algo ~n ~k ~init ~apply () =
  { assignment = Kex_runtime.Kex_lock.Assignment.create ?algo ~n ~k ();
    obj = Universal.create ~k ~init ~apply;
    n;
    k }

let perform t ~pid op =
  Kex_runtime.Kex_lock.Assignment.with_name t.assignment ~pid (fun name ->
      Universal.perform t.obj ~tid:name op)

(* One admission (one slot acquire/release, one name) and one commit for a
   whole batch of operations — the service's workers, its reactors' inline
   path and its migration imports go through this.  The batch is one
   announcement inside the wait-free object and linearizes at its commit
   CAS, in list order, so the resiliency story is unchanged: a crash
   mid-batch costs one slot, and an announced batch is finished by
   helpers like a single operation. *)
let perform_batch t ~pid = function
  | [] -> []
  | ops ->
      Kex_runtime.Kex_lock.Assignment.with_name t.assignment ~pid (fun name ->
          Universal.perform_batch t.obj ~tid:name ops)

(* [perform_batch] through a no-wait admission: [None] when the wrapper
   refuses, with nothing applied. *)
let try_perform_batch t ~pid ops =
  Kex_runtime.Kex_lock.Assignment.try_with_name t.assignment ~pid (fun name ->
      Universal.perform_batch t.obj ~tid:name ops)

(* The read plane is the universal object's head: each commit is one CAS
   that installs an immutable (operation count, state) cell, so one atomic
   load returns a consistent, linearized pair, and sees a batch whole or
   not at all.  Reads take no name and no slot, and a mutation returns
   only after its commit CAS, so every acknowledged mutation is visible to
   every later read. *)
let read t = Universal.state t.obj
let read_versioned t = Universal.committed t.obj
let operations t = Universal.applied_count t.obj
let apply_calls t = Universal.apply_calls t.obj
let n t = t.n
let k t = t.k
let inner t = t.obj
let assignment t = t.assignment
