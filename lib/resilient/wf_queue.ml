(* Sequential object: Okasaki-style two-list queue. *)
type 'a queue = { front : 'a list; back : 'a list }

type 'a op = Enqueue of 'a | Dequeue
type 'a result = Unit | Popped of 'a option

type 'a t = ('a queue, 'a op, 'a result) Universal.t

let norm = function { front = []; back } -> { front = List.rev back; back = [] } | q -> q

let apply q = function
  | Enqueue v -> (norm { q with back = v :: q.back }, Unit)
  | Dequeue -> (
      match norm q with
      | { front = v :: front; back } -> (norm { front; back }, Popped (Some v))
      | { front = []; _ } as q -> (q, Popped None))

let create ~k = Universal.create ~k ~init:{ front = []; back = [] } ~apply:(Universal.per_op apply)

let enqueue t ~tid v =
  match Universal.perform t ~tid (Enqueue v) with Unit -> () | Popped _ -> assert false

let dequeue t ~tid =
  match Universal.perform t ~tid Dequeue with Popped v -> v | Unit -> assert false

let to_list t =
  let q = Universal.state t in
  q.front @ List.rev q.back

let length t = List.length (to_list t)
let peek t = match to_list t with [] -> None | v :: _ -> Some v
