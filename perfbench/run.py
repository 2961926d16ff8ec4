"""One benchmark command for CamAL: bulk store scoring, daemon, training.

Usage (from the repository root)::

    python3 perfbench/run.py --workload store_paper --seed 1 --seconds 20 --trace 0

Workloads: ``store_paper``, ``serve_mixed``, ``train_weak`` (README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` wraps the
program's layer entry points, prints the per-layer metrics and writes
the spans to ``.perfbench_work/trace-<workload>-seed<seed>.json``.
The last line of standard output is the JSON result; the lines before it
carry the host fingerprint and per-workload details.  A failed output
check prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import ROOT, SRC  # noqa: E402 - pins BLAS before NumPy loads


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("store_paper", "serve_mixed", "train_weak"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="tiny sizes for the self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    from perfbench.harness import run_workload

    return run_workload(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
