type ('s, 'op, 'r) t = {
  assignment : Kex_runtime.Kex_lock.Assignment.t;
  obj : ('s, 'op, 'r) Universal.t;
  snap : 's Snapshot.t;  (* published read plane; see read *)
  n : int;
  k : int;
}

let create ?algo ~n ~k ~init ~apply () =
  { assignment = Kex_runtime.Kex_lock.Assignment.create ?algo ~n ~k ();
    obj = Universal.create ~k ~init ~apply;
    snap = Snapshot.create ~version:0 init;
    n;
    k }

(* Export the latest committed state to the read plane.  Runs after the
   admission wrapper releases (publication is not a mutation, so it needs no
   slot) but before the operation's result is returned — so by the time a
   mutation is acknowledged anywhere, a snapshot at least as new as that
   mutation is published, which is what makes wait-free reads linearizable
   with respect to acknowledged writes. *)
let publish_committed t =
  let version, state = Universal.committed t.obj in
  Snapshot.publish t.snap ~version state

let perform t ~pid op =
  let r =
    Kex_runtime.Kex_lock.Assignment.with_name t.assignment ~pid (fun name ->
        Universal.perform t.obj ~tid:name op)
  in
  publish_committed t;
  r

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
  | ops ->
      let rs = Kex_runtime.Kex_lock.Assignment.with_name t.assignment ~pid (perform_all t ops) in
      publish_committed t;
      rs

(* [perform_batch] through a no-wait admission: [None] when the wrapper
   refuses, with nothing applied and nothing published. *)
let try_perform_batch t ~pid ops =
  let rs = Kex_runtime.Kex_lock.Assignment.try_with_name t.assignment ~pid (perform_all t ops) in
  if Option.is_some rs then publish_committed t;
  rs

let read t = snd (Snapshot.read t.snap)
let read_versioned t = Snapshot.read t.snap
let peek t = Universal.state t.obj
let operations t = Universal.applied_count t.obj
let apply_calls t = Universal.apply_calls t.obj
let n t = t.n
let k t = t.k
let inner t = t.obj
let assignment t = t.assignment
