"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACED RUN_ID SCRATCH_DIR

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src``.
It imports ``betalab.cli`` first, as the ``betalab`` entry point does, and
reports the monotonic clock at the moment that import completes, so the
parent can time interpreter start-up. It prints one JSON line.
"""

import time

import betalab.cli

IMPORTED_AT = time.monotonic()

import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spec import STATS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Gate, check_gate  # noqa: E402

SRC = (Path(__file__).resolve().parent.parent / "src").resolve()
THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in THREAD_QUERIES:
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def _environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def main() -> None:
    workload, seed, traced, run_id, scratch = sys.argv[1:6]
    where = Path(betalab.cli.__file__).resolve().parent.parent
    if where != SRC:
        sys.exit(f"betalab was imported from {where}, not from this checkout's {SRC}")
    check_gate()

    tracer = Tracer(run_id, traced == "1")
    gate = Gate()
    stats: dict = {}
    t0 = time.perf_counter()
    with tracer.span("pass"):
        WORKLOADS[workload](int(seed), tracer, gate, stats, Path(scratch))
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps({
        "imported_at": IMPORTED_AT,
        "traced": tracer.enabled,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "cert_digits": gate.cert_digits(),
        "ops": [[op.name, op.value, op.limit, op.ok] for op in gate.ops],
        "stats": {name: stats.get(name, 0.0) for name, _, _ in STATS},
        "spans": tracer.spans,
        "environment": _environment(),
    }))


if __name__ == "__main__":
    main()
