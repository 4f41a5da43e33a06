let create = Simulated.fig6
