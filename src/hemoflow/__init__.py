"""hemoflow: finite-volume vascular flow toolkit with a PODI surrogate.

OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS default to 1
when hemoflow is imported before numpy, which reads them once as it
loads BLAS; a value set in the environment wins. Threaded OpenBLAS makes
the banded Cholesky factor of a 2D pressure matrix of bandwidth above 16
several times slower on a 2-core host, and threads gained nothing
measured elsewhere.
"""

import os

for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_key, "1")

__version__ = "0.1.0"
