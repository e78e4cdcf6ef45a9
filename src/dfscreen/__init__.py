"""Two-stage dynamic few-shot screening for systematic-review triage."""

import os

# The dense math (a 64-column covariance, a 64x64 eigh, an n x 2
# projection) gains no wall time from a second BLAS thread, which only
# spins.  Set before numpy loads; an explicit value still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
