from hypothesis import settings

# The same examples on every run, and no per-example time limit: timings
# on a small shared host are too noisy for Hypothesis's deadline.
settings.register_profile("pathsplit", deadline=None, derandomize=True, database=None)
settings.load_profile("pathsplit")
