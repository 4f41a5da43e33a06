type op =
  | Set of string * string
  | Get of string
  | Delete of string
  | Update of string * (string option -> string option)
  | Fetch_add of string * int

type result = Unit | Value of string option | Existed of bool | New_value of int

(* The committed state: the sorted index plus its key count, kept exact by
   every write (the index reports whether each add or remove changed the
   count) so that [size] is O(1) at any store size. *)
type state = { map : string Smap.t; keys : int }

type t = (state, op, result) Resilient.t

let put s key v =
  let map, added = Smap.add key v s.map in
  { map; keys = (if added then s.keys + 1 else s.keys) }

let drop s key =
  let map, removed = Smap.remove key s.map in
  ((if removed then { map; keys = s.keys - 1 } else s), removed)

let apply s = function
  | Set (key, v) -> (put s key v, Unit)
  | Get key -> (s, Value (Smap.find_opt key s.map))
  | Delete key ->
      let s, existed = drop s key in
      (s, Existed existed)
  | Update (key, f) -> (
      match f (Smap.find_opt key s.map) with
      | Some v -> (put s key v, Unit)
      | None -> (fst (drop s key), Unit))
  | Fetch_add (key, delta) ->
      let current =
        match Smap.find_opt key s.map with
        | Some digits -> Option.value (int_of_string_opt digits) ~default:0
        | None -> 0
      in
      let v = current + delta in
      (put s key (string_of_int v), New_value v)

let create ?algo ~n ~k () =
  Resilient.create ?algo ~n ~k ~init:{ map = Smap.empty; keys = 0 } ~apply ()

let set t ~pid ~key v =
  match Resilient.perform t ~pid (Set (key, v)) with Unit -> () | _ -> assert false

let get t ~pid ~key =
  match Resilient.perform t ~pid (Get key) with Value v -> v | _ -> assert false

(* The wait-free read plane: no pid, no admission, live on a wedged store. *)
let read t ~key = Smap.find_opt key (Resilient.read t).map

(* A batch of wait-free reads off one snapshot: every key is looked up in
   the same published map, walked in lockstep ([Smap.find_many]). *)
let read_many t keys = Smap.find_many (Resilient.read t).map keys

(* Ordered range read off the same published snapshot: the Smap *is* the
   sorted index — every mutation maintains it — so a scan is one consistent
   [to_seq_from] walk over a single snapshot, wait-free like [read]. *)
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

(* Bulk import for shard migration: apply (key, value option) changes in
   order, <= 512 linearized ops per admission entry.  [Some v] sets, [None]
   deletes. *)
let apply_changes t ~pid changes =
  let to_op (key, v) = match v with Some v -> Set (key, v) | None -> Delete key in
  let rec go = function
    | [] -> ()
    | changes ->
        let rec split n acc rest =
          match rest with
          | _ when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | c :: rest -> split (n - 1) (to_op c :: acc) rest
        in
        let batch, rest = split 512 [] changes in
        ignore (Resilient.perform_batch t ~pid batch);
        go rest
  in
  go changes

let size t = (Resilient.peek t).keys
let snapshot t = Smap.bindings (Resilient.peek t).map
let operations t = Resilient.operations t
let apply_calls t = Resilient.apply_calls t
let assignment t = Resilient.assignment t
