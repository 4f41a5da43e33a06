let create = Simulated.assignment
