"""One pass of one workload, in a fresh process.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED [SPANS_PATH]``.
Prints ``{"ready": true}`` once the workload is set up (the parent
times set-up from its spawn to that line), then runs the timed phase
and prints one JSON result line. With ``SPANS_PATH`` the layer
boundaries are traced and the spans are written there.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import BUILDERS  # noqa: E402


def _blas_threads():
    """Thread count OpenBLAS reports in this process, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    run = BUILDERS[name](seed)
    print(json.dumps({"ready": True}), flush=True)

    t0 = time.perf_counter()
    results = run()
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"wall_s": wall_s,
           "peak_rss_mb": peak_rss_mb,
           "latencies_s": [lat for _, lat, _, _ in results],
           "failures": [[label, detail] for label, _, ok, detail in results if not ok],
           "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.start)
        tracer.save(spans_path)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
