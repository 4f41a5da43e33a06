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

(* One admission (one slot acquire/release, one name) amortized over a whole
   batch of operations — the service's per-shard workers drain their rings
   through this.  Each operation still linearizes individually inside the
   wait-free object; only the wrapper entry is shared, so the resiliency
   story is unchanged: a crash mid-batch costs one slot and the batch's
   unfinished operations are re-dispatched by the supervisor exactly like
   single operations. *)
let perform_all t ops name = List.map (fun op -> Universal.perform t.obj ~tid:name op) ops

let perform_batch t ~pid ops =
  match ops with
  | [] -> []
  | [ op ] -> [ perform t ~pid op ]
  | ops -> Kex_runtime.Kex_lock.Assignment.with_name t.assignment ~pid (perform_all t ops)

(* [perform_batch] through a no-wait admission: [None] when the wrapper
   refuses, with nothing applied. *)
let try_perform_batch t ~pid ops =
  Kex_runtime.Kex_lock.Assignment.try_with_name t.assignment ~pid (perform_all t ops)

(* The read plane is the universal object's head: each commit is one CAS
   that installs an immutable (sequence, state) cell, so one atomic load
   returns a consistent, linearized pair.  Reads take no name and no slot,
   and a mutation returns only after its commit CAS, so every acknowledged
   mutation is visible to every later read. *)
let read t = Universal.state t.obj
let read_versioned t = Universal.committed t.obj
let operations t = Universal.applied_count t.obj
let apply_calls t = Universal.apply_calls t.obj
let n t = t.n
let k t = t.k
let inner t = t.obj
let assignment t = t.assignment
