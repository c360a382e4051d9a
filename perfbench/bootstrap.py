"""Pin BLAS to one thread and make the checkout's ``src/`` importable.

Must run before anything imports numpy: OpenBLAS reads its thread count
when it loads.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

THREAD_VARS = ("RADARVITALS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_and_locate() -> None:
    """Pin every BLAS thread variable to 1 and put ``src/`` first on the path.

    Exits with code 2 when the checkout holds no ``src/radarvitals``, so a
    stray installed copy of the package is never measured instead.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "radarvitals" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
