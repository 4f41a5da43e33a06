let create = Simulated.inductive
