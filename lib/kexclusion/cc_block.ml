let create = Simulated.fig2
