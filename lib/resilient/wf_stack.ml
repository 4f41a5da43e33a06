type 'a op = Push of 'a | Pop
type 'a result = Unit | Popped of 'a option

type 'a t = ('a list, 'a op, 'a result) Universal.t

let apply s = function
  | Push v -> (v :: s, Unit)
  | Pop -> ( match s with [] -> ([], Popped None) | v :: rest -> (rest, Popped (Some v)))

let create ~k = Universal.create ~k ~init:[] ~apply:(Universal.per_op apply)

let push t ~tid v =
  match Universal.perform t ~tid (Push v) with Unit -> () | Popped _ -> assert false

let pop t ~tid = match Universal.perform t ~tid Pop with Popped v -> v | Unit -> assert false
let to_list t = Universal.state t
let top t = match to_list t with [] -> None | v :: _ -> Some v
let length t = List.length (to_list t)
