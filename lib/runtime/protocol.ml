type t = { name : string; entry : int -> unit; exit : int -> unit; try_entry : int -> bool }

let trivial = { name = "trivial"; entry = ignore; exit = ignore; try_entry = (fun _ -> true) }
