let with_tree = Simulated.fast_path_tree
