"""One workload process: set up, run the op sequence, report.

Started by run.py, never imported.  It prints "ready" on stdout once hspec is
imported and the seeded inputs are written; run.py times set-up from launch
to that line.  With --probe it exits there.  Otherwise it runs every op as an
in-process call to hspec.cli.main, one after another (a closed loop with one
client), and writes results.json (and spans.jsonl with --trace) to --workdir.
With --trace each op runs twice, untraced and traced, in alternating order.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hspec.cli  # noqa: E402  (set-up includes this import)

from workloads import WORKLOADS  # noqa: E402

# a stuck or very slow machine must still let run.py finish inside its limit
HARD_CAP_S = 120.0


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_op(argv: list[str]) -> tuple[int | None, float, str | None]:
    start = time.perf_counter()
    try:
        rc = hspec.cli.main(argv)
        error = None
    except Exception as exc:  # an escaped exception is a failed op, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, error


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    workdir = Path(args.workdir)
    ops = WORKLOADS[args.workload].ops(args.seed, args.cycles)
    for op in ops:
        if op.expr is not None:
            (workdir / f"sym{op.index:04d}.json").write_text(json.dumps(op.symbol_doc()))
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    started = time.perf_counter()
    results = []
    for op in ops:
        if time.perf_counter() - started > HARD_CAP_S:
            break
        sym = str(workdir / f"sym{op.index:04d}.json")
        modes = [False]
        if tracer is not None:  # alternate which of the pair runs first
            modes = [False, True] if op.index % 2 == 0 else [True, False]
        for traced in modes:
            out = workdir / f"out{op.index:04d}{'t' if traced else ''}.json"
            with tracer.installed(op.index) if traced else contextlib.nullcontext():
                rc, seconds, error = run_op(op.argv(sym, str(out)))
            results.append({"op": op.index, "traced": traced, "rc": rc,
                            "seconds": seconds, "error": error, "output": out.name})
    doc = {
        "results": results,
        "timed_s": time.perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "hspec_threads": os.environ.get("HSPEC_THREADS"),
        "nproc": os.cpu_count(),
    }
    if tracer is not None:
        with open(workdir / "spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in tracer.spans)
    (workdir / "results.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
