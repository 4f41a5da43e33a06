(* The committed state: the sorted index plus its key count, kept exact by
   every write (a key's count changes when its value goes from absent to
   present or back) so that [size] is O(1) at any store size. *)
type state = { map : string Smap.t; keys : int }

(* A shard's state built away from the store, installed by one [Install]. *)
type image = state

type op =
  | Set of string * string
  | Get of string
  | Delete of string
  | Update of string * (string option -> string option)
  | Fetch_add of string * int
  | Install of image

type result = Unit | Value of string option | Existed of bool | New_value of int

type t = (state, op, result) Resilient.t

let key_of = function
  | Set (key, _) | Get key | Delete key | Update (key, _) | Fetch_add (key, _) -> key
  | Install _ -> invalid_arg "Kv_store.key_of"

(* Operation [i] on its key's current value [cur]: the key's new value,
   with the answer stored in [results.(i)] (which starts out [Unit]). *)
let step results i cur = function
  | Set (_, v) -> Some v
  | Get _ ->
      results.(i) <- Value cur;
      cur
  | Delete _ ->
      results.(i) <- Existed (Option.is_some cur);
      None
  | Update (_, f) -> f cur
  | Fetch_add (_, delta) ->
      let current =
        match cur with
        | Some digits -> Option.value (int_of_string_opt digits) ~default:0
        | None -> 0
      in
      let v = current + delta in
      results.(i) <- New_value v;
      Some (string_of_int v)
  | Install _ -> assert false

(* The operations [ops.(lo .. hi-1)] grouped by key, as [(slots, next)]:
   [slots.(p)] is the first operation on the p-th smallest distinct key,
   and [next.(i - lo)] the operation after [i] on the same key (-1 after
   the last).  A batch already in strict key order (every batch of one, a
   bulk load) is found so in one compare per operation and gets
   [in_order], two empty arrays that [first] and [after] read as: slot p
   is operation [lo + p], and no key repeats.  Grouping such a batch
   allocates nothing, which keeps a batch of one close to the cost of a
   single write.  Otherwise the prefix
   in order is kept and each later operation is placed by a binary search
   with three-way compares: an equal key joins that key's group, a new key
   is inserted.  Insertion is stable, so a key's group keeps list order. *)
let in_order = ([||], [||])

let group ops lo hi =
  let i = ref (lo + 1) in
  while !i < hi && String.compare (key_of ops.(!i)) (key_of ops.(!i - 1)) > 0 do
    incr i
  done;
  if !i = hi then in_order
  else begin
    let slots = Array.make (hi - lo) lo and next = Array.make (hi - lo) (-1) in
    let m = ref (!i - lo) in
    for p = 1 to !m - 1 do
      slots.(p) <- lo + p
    done;
    for i = !i to hi - 1 do
      let key = key_of ops.(i) in
      let a = ref 0 and b = ref !m and hit = ref false in
      while !a < !b do
        let mid = (!a + !b) lsr 1 in
        let c = String.compare key (key_of ops.(slots.(mid))) in
        if c > 0 then a := mid + 1
        else if c < 0 then b := mid
        else begin
          hit := true;
          a := mid;
          b := mid
        end
      done;
      if !hit then begin
        let last = ref slots.(!a) in
        while next.(!last - lo) >= 0 do
          last := next.(!last - lo)
        done;
        next.(!last - lo) <- i
      end
      else begin
        for q = !m downto !a + 1 do
          slots.(q) <- slots.(q - 1)
        done;
        slots.(!a) <- i;
        incr m
      end
    done;
    (Array.sub slots 0 !m, next)
  end

let first slots lo p = if Array.length slots = 0 then lo + p else slots.(p)
let after next lo i = if Array.length next = 0 then -1 else next.(i - lo)

(* Operation [i] and the rest of its key's group, in list order, from the
   key's value [v]. *)
let rec run_group ops results next lo i v =
  if i < 0 then v else run_group ops results next lo (after next lo i) (step results i v ops.(i))

(* [ops.(lo .. hi-1)], none an [Install], applied to [s] in one descent of
   the index ([Smap.update_many]) over their distinct keys.  Each key's
   operations run in list order on its current value, so a
   read-modify-write descends once, and each answer lands in its list
   position.  The key count moves by one for each key the batch brings in
   or takes out. *)
let pass s ops results lo hi =
  if lo >= hi then s
  else begin
    let slots, next = group ops lo hi in
    let m = if Array.length slots = 0 then hi - lo else Array.length slots in
    let keys = Array.make m "" in
    for p = 0 to m - 1 do
      keys.(p) <- key_of ops.(first slots lo p)
    done;
    let count = ref s.keys in
    let map =
      Smap.update_many s.map keys (fun p cur ->
          let v = run_group ops results next lo (first slots lo p) cur in
          (match (cur, v) with
          | None, Some _ -> incr count
          | Some _, None -> decr count
          | _ -> ());
          v)
    in
    { map; keys = !count }
  end

(* [Array.of_list] without the closure it allocates per call. *)
let rec fill a i = function
  | [] -> a
  | op :: rest ->
      a.(i) <- op;
      fill a (i + 1) rest

(* The store's batch apply: the operations between [Install]s go through
   one [pass] each, and an [Install] replaces the whole state. *)
let apply s ops =
  let ops = match ops with [] -> [||] | op :: _ -> fill (Array.make (List.length ops) op) 0 ops in
  let n = Array.length ops in
  let results = Array.make n Unit in
  let rec segment s lo i =
    if i = n then pass s ops results lo n
    else
      match ops.(i) with
      | Install image ->
          ignore (pass s ops results lo i);
          segment image (i + 1) (i + 1)
      | _ -> segment s lo (i + 1)
  in
  let s = segment s 0 0 in
  (s, Array.to_list results)

let empty_image = { map = Smap.empty; keys = 0 }

let stage image changes =
  fst
    (apply image
       (List.map (fun (key, v) -> match v with Some v -> Set (key, v) | None -> Delete key) changes))

let create ?algo ~n ~k () =
  Resilient.create ?algo ~n ~k ~init:empty_image ~apply ()

let set t ~pid ~key v =
  match Resilient.perform t ~pid (Set (key, v)) with Unit -> () | _ -> assert false

let get t ~pid ~key =
  match Resilient.perform t ~pid (Get key) with Value v -> v | _ -> assert false

(* The wait-free read plane: no pid, no admission, live on a wedged store. *)
let read t ~key = Smap.find_opt key (Resilient.read t).map

(* A batch of wait-free reads off one head read: every key is looked up in
   the same committed map, walked in lockstep ([Smap.find_many]). *)
let read_many t keys = Smap.find_many (Resilient.read t).map keys

(* Ordered range read off one head read: the Smap *is* the sorted index —
   every mutation maintains it — so a scan is one consistent [to_seq_from]
   walk over a single committed map, wait-free like [read]. *)
let scan t ~start ~count =
  if count <= 0 then []
  else begin
    let rec take n seq acc =
      if n = 0 then List.rev acc
      else
        match seq () with
        | Seq.Nil -> List.rev acc
        | Seq.Cons (kv, rest) -> take (n - 1) rest (kv :: acc)
    in
    take count (Smap.to_seq_from start (Resilient.read t).map) []
  end

let read_versioned t =
  let version, s = Resilient.read_versioned t in
  (version, Smap.bindings s.map)

let read_version t = fst (Resilient.read_versioned t)

let delete t ~pid ~key =
  match Resilient.perform t ~pid (Delete key) with Existed b -> b | _ -> assert false

let update t ~pid ~key f =
  match Resilient.perform t ~pid (Update (key, f)) with Unit -> () | _ -> assert false

let fetch_add t ~pid ~key delta =
  match Resilient.perform t ~pid (Fetch_add (key, delta)) with
  | New_value v -> v
  | _ -> assert false

let perform_batch t ~pid ops = Resilient.perform_batch t ~pid ops
let try_perform_batch t ~pid ops = Resilient.try_perform_batch t ~pid ops

let size t = (Resilient.read t).keys
let snapshot t = Smap.bindings (Resilient.read t).map
let operations t = Resilient.operations t
let apply_calls t = Resilient.apply_calls t
let assignment t = Resilient.assignment t
