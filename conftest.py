"""Pin BLAS to one thread before numpy loads, as ``perfbench/run.py``
does, whatever the environment sets. How BLAS splits a product over
threads changes its rounding, and the seeded runs the tests pin keep those
bits: at two threads the seed-7 training run of ``tests/test_cli.py``
overflows inside ``train`` instead of finishing diverged."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
