"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json in fresh worker processes (worker.py),
checks every report the CLI wrote (check.py), prints a table and, as the last
line of stdout, one JSON object {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics; --trace 1 the
per-layer ones from a traced run (tracing.py).  Exits 1 if any op failed,
2 if the hspec sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import check_output
from tracing import LAYERS, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2     # set-up is sampled by these launches plus the timed worker's
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    pass


def launch(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start worker.py; return it and the seconds until it printed "ready"."""
    env = dict(os.environ)
    env.pop("HSPEC_THREADS", None)  # library default
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - start
        if line.strip() != b"ready":
            raise RunError(f"worker did not become ready (exit {proc.poll()})")
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        rc = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker exceeded the run time limit") from None
    finally:
        stop(proc)
    if rc != 0:
        raise RunError(f"worker exited with {rc}")


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run(args, spec: dict) -> int:
    wl = WORKLOADS[args.workload]
    traced = args.trace == 1
    cycles = wl.cycles(args.seconds, traced)
    ops = wl.ops(args.seed, cycles)
    deadline = time.monotonic() + RUN_LIMIT_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".bench_work"))
    try:
        worker_args = ["--workload", wl.name, "--seed", str(args.seed),
                       "--cycles", str(cycles), "--workdir", str(workdir)]
        setups = []
        if not traced:
            for _ in range(SETUP_PROBES):
                proc, seconds = launch(worker_args + ["--probe"], deadline)
                finish(proc, deadline)
                setups.append(seconds)
        proc, seconds = launch(worker_args + (["--trace"] if traced else []), deadline)
        setups.append(seconds)
        finish(proc, deadline)
        doc = json.loads((workdir / "results.json").read_text())
        failures = []
        for res in doc["results"]:
            out = workdir / res["output"]
            text = out.read_text() if out.exists() else None
            errors = check_output(ops[res["op"]], res["rc"], text)
            if res["error"]:
                errors.insert(0, res["error"])
            if errors:
                failures.append((res, errors))
        spans = []
        if traced:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            kept = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
            shutil.move(str(workdir / "spans.jsonl"), kept)
            with open(kept) as fh:
                spans = [json.loads(line) for line in fh]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = doc["results"]
    attempted = len(ops) * (2 if traced else 1)
    failed = len(failures) + attempted - len(results)  # ops cut by the hard cap never ran

    print(f"workload {wl.name}  seed {args.seed}  {len(ops)} ops in {cycles} cycle(s)  "
          f"{'traced' if traced else 'untraced'}")
    print(f"settings: HSPEC_THREADS={doc['hspec_threads'] or 'unset'}  "
          f"BLAS threads={doc['blas_threads']}  nproc={doc['nproc']}")
    for res, errors in failures:
        print(f"FAILED op {res['op']} ({'traced' if res['traced'] else 'untraced'}): "
              f"{ops[res['op']].argv('SYMBOL', 'OUT')}: {'; '.join(errors[:3])}",
              file=sys.stderr)

    if traced:
        metrics, units = traced_metrics(results, ops, spans), spec["per_layer"]
    else:
        times = [r["seconds"] for r in results]
        pct, tail_s = tail(times)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "ops_per_s": len(results) / doc["timed_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        units = spec["end_to_end"]
        print(f"set-up sampled {len(setups)} times; op_tail_s is p{pct:.1f} "
              f"of {len(times)} samples; fail_frac = {failed / attempted!r} "
              f"({failed} of {attempted})")
    out = {}
    for m in units:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<24} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def traced_metrics(results: list, ops: list, spans: list) -> dict:
    ran = sorted({r["op"] for r in results if r["traced"]})
    metrics = layer_metrics(spans, [ops[i] for i in ran])
    # each op ran untraced and traced back to back; pairing them removes the
    # spread between ops of different sizes from the ratio
    seconds = {(r["op"], r["traced"]): r["seconds"] for r in results}
    metrics["trace.overhead"] = statistics.median(
        seconds[i, True] / seconds[i, False] for i in ran if (i, False) in seconds) - 1.0
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print("self-time share per layer: " + "  ".join(
        f"{layer} {100 * metrics[f'{layer}.self_s'] / total:.1f}%" for layer in LAYERS))
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "hspec" / "cli.py").is_file():
        print(f"error: no hspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    try:
        return run(args, spec)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
