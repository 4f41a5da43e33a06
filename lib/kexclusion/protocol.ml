open Import

type t = Simulated.protocol = {
  name : string;
  entry : pid:int -> unit Op.t;
  exit : pid:int -> unit Op.t;
  try_entry : pid:int -> bool Op.t;
}

type named = Simulated.named = {
  assignment_name : string;
  acquire : pid:int -> int Op.t;
  try_acquire : pid:int -> int option Op.t;
  release : pid:int -> name:int -> unit Op.t;
}

type block = Simulated.block

let workload p =
  Runner.plain_workload
    ~acquire:(fun ~pid -> Op.map (fun () -> 0) (p.entry ~pid))
    ~release:(fun ~pid ~name:_ -> p.exit ~pid)
    ~check_names:false

let named_workload p =
  Runner.plain_workload ~acquire:p.acquire ~release:p.release ~check_names:true
