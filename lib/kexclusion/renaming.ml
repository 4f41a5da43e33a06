type t = Simulated.renaming

let create = Simulated.renaming
let acquire = Simulated.rename
let release = Simulated.unname
