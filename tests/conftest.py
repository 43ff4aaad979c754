"""Pin the BLAS and OpenMP thread pools to one thread before numpy loads.

pytest imports this file before any test module, so the settings reach
numpy, scipy and the worker processes of the acceptance battery.  On a small
machine one thread per process is faster for this suite's small matrices
(the GP frozen-lake cell ran about twice as fast), and the two battery
workers do not contend for cores.  A value already set in the environment
wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
