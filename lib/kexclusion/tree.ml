let create = Simulated.tree
let levels = Simulated.tree_levels
