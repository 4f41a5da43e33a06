let create = Simulated.graceful
