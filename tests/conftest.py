from hypothesis import settings

# Derandomized examples and no per-example deadline: the suite draws the same
# graphs on every run and has no wall-clock gate.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
