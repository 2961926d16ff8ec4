"""One benchmark for CamAL (README.md).

Importing the package pins BLAS to one thread before NumPy is imported
anywhere (the serving daemon the benchmark starts inherits the same
environment) and puts the program's sources on the import path.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if SRC not in sys.path:
    sys.path.insert(0, SRC)
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
