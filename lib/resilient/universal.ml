(* Herlihy-style announce-and-help over one CAS'd head cell, for k tids.
   The object is given as one batch apply function, [apply state ops], and
   a helper calls it once per announced batch: the batch, not the
   operation, is the unit the construction applies and commits.  An object
   with a batch algorithm uses it there; the key-value store sorts a batch
   by key and writes it in one descent of its tree, so a bulk load copies a
   shared path once per batch rather than once per key.  Objects written
   one operation at a time are lifted by [per_op]. *)

(* A commit cell.  [seq] counts commits (it rotates the designated
   beneficiary); [ops] counts the operations those commits linearized, so
   versions and [applied_count] stay in operations whatever the batch
   sizes. *)
type ('s, 'r) cell = {
  seq : int;
  ops : int;
  state : 's;
  applied : int array;  (* last applied phase, per tid *)
  results : 'r list array;  (* results of that application, per tid *)
}

type 'op request = { batch : 'op list; size : int; phase : int; tid : int }

type ('s, 'op, 'r) t = {
  k : int;
  apply : 's -> 'op list -> 's * 'r list;
  head : ('s, 'r) cell Atomic.t;
  announce : 'op request option Atomic.t array;
  phases : int array;  (* private per-tid phase counters *)
  applies : int Atomic.t;  (* operations applied, committed or not *)
}

let create ~k ~init ~apply =
  if k <= 0 then invalid_arg "Universal.create: k must be positive";
  { k;
    apply;
    head =
      Atomic.make
        { seq = 0; ops = 0; state = init; applied = Array.make k 0; results = Array.make k [] };
    announce = Array.init k (fun _ -> Atomic.make None);
    phases = Array.make k 0;
    applies = Atomic.make 0 }

let per_op apply s ops =
  let rec run s acc = function
    | [] -> (s, List.rev acc)
    | op :: rest ->
        let s, r = apply s op in
        run s (r :: acc) rest
  in
  run s [] ops

let check_tid t tid =
  if tid < 0 || tid >= t.k then
    invalid_arg (Printf.sprintf "Universal: tid %d out of range 0..%d" tid (t.k - 1))

let announce t ~tid batch =
  let phase = t.phases.(tid) + 1 in
  t.phases.(tid) <- phase;
  Atomic.set t.announce.(tid) (Some { batch; size = List.length batch; phase; tid });
  phase

(* Attempt to linearize one pending batch on top of [h]: one call of the
   batch apply, then one CAS to install the result.  The designated
   beneficiary rotates with the commit number, which is what makes the
   construction wait-free: within k successful commits every pending
   announcement is helped.  One batch per commit: the other pending
   announcements wait for their own turn.  Applying all of them in one
   commit was measured slower, because a lost CAS then throws away more
   work; that was measured when the store applied a batch one operation
   at a time, and ROADMAP item 10 asks for it to be re-measured. *)
let try_advance t h =
  let pending tid =
    match Atomic.get t.announce.(tid) with
    | Some r when r.phase > h.applied.(tid) -> Some r
    | Some _ | None -> None
  in
  let designated = (h.seq + 1) mod t.k in
  let req =
    match pending designated with
    | Some r -> Some r
    | None ->
        let rec scan i = if i >= t.k then None else (match pending i with Some r -> Some r | None -> scan (i + 1)) in
        scan 0
  in
  match req with
  | None -> ()
  | Some r ->
      let state, rs = t.apply h.state r.batch in
      ignore (Atomic.fetch_and_add t.applies r.size);
      let applied = Array.copy h.applied in
      let results = Array.copy h.results in
      applied.(r.tid) <- r.phase;
      results.(r.tid) <- rs;
      ignore
        (Atomic.compare_and_set t.head h
           { seq = h.seq + 1; ops = h.ops + r.size; state; applied; results })

let perform_batch t ~tid ops =
  check_tid t tid;
  match ops with
  | [] -> []
  | ops ->
      let phase = announce t ~tid ops in
      let rec loop () =
        let h = Atomic.get t.head in
        if h.applied.(tid) >= phase then begin
          Atomic.set t.announce.(tid) None;
          h.results.(tid)
        end
        else begin
          try_advance t h;
          loop ()
        end
      in
      loop ()

let perform t ~tid op =
  match perform_batch t ~tid [ op ] with [ r ] -> r | _ -> assert false

let announce_only t ~tid ops =
  check_tid t tid;
  ignore (announce t ~tid ops)

let state t = (Atomic.get t.head).state
let applied_count t = (Atomic.get t.head).ops

let committed t =
  let h = Atomic.get t.head in
  (h.ops, h.state)
let apply_calls t = Atomic.get t.applies
let k t = t.k
