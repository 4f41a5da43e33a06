type 'a op = Write of 'a | Modify of ('a -> 'a) | Cas of 'a * 'a
type 'a result = Unit | Previous of 'a | Success of bool

type 'a t = ('a, 'a op, 'a result) Universal.t

let apply v = function
  | Write v' -> (v', Unit)
  | Modify f -> (f v, Previous v)
  | Cas (expected, desired) -> if v = expected then (desired, Success true) else (v, Success false)

let create ~k ~init = Universal.create ~k ~init ~apply:(Universal.per_op apply)
let read t = Universal.state t

let write t ~tid v =
  match Universal.perform t ~tid (Write v) with Unit -> () | Previous _ | Success _ -> assert false

let modify t ~tid f =
  match Universal.perform t ~tid (Modify f) with
  | Previous v -> v
  | Unit | Success _ -> assert false

let compare_and_swap t ~tid ~expected ~desired =
  match Universal.perform t ~tid (Cas (expected, desired)) with
  | Success b -> b
  | Unit | Previous _ -> assert false
