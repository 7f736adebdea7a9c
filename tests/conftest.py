import sys, os
sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

# Same examples on every run, no wall-clock deadline (timings on a loaded
# machine are noisy), and no example database written to the tree.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("tier1")
