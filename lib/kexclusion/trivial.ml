let create = Simulated.trivial
