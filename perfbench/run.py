"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload trace-loops --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; the library is imported from
``src/``. Each pass of the workload runs in a fresh process
(``worker.py``) with one BLAS thread. Passes repeat until ``--seconds``
would be exceeded (at least three); see :func:`end_to_end` for how the
passes are combined. ``--trace 1`` then adds two traced passes, each
right after an untraced one, checks that their work counters agree
exactly, and reports the per-layer metrics instead. The last line of
standard output is the JSON result; the lines before it are a readable
report. The exit code is 1 when any operation fails its check or a
counter drifts, and 2 when there are no library sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from stats import latency_summary  # noqa: E402
from tracing import metric_names, metric_unit  # noqa: E402

WORKLOADS = ("trace-loops", "matrix-moments", "cumulant-tuples", "verify-suite")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
TRACED_PASSES = 2

# One BLAS thread: with two, the degree-8 SVD in operator_norm ranged over
# 6x between runs on a 2-core host. PYTHONHASHSEED fixes set and dict
# orders that could otherwise move the work counters between runs.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MiB", "fail_ratio": "ratio"}


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the library's source files, to compare runs without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(workload: str, seed: int, spans_path: Path | None = None) -> dict:
    """Spawn one worker; time set-up to its ready line and collect its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    env = dict(os.environ, **PASS_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if json.loads(ready or "{}").get("ready") is not True:
            raise RuntimeError(f"worker for {workload} did not get ready")
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["total_s"] = time.perf_counter() - t0
    return result


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, plus how the tail was taken.

    Other tenants of the host only ever add time, in episodes of one to
    tens of seconds, so a timing is the best over passes. Every pass runs
    the same operations, so each operation's latency is taken as its
    fastest over passes; the median and tail are taken over those, and
    ``wall_s`` is their sum plus the fastest time any pass spent outside
    its operations. An episode then costs only the operations it covers,
    where the fastest whole pass would lose every pass it touches. Set-up
    and memory are medians over passes.
    """
    best = [min(lats) for lats in zip(*(p["latencies_s"] for p in passes))]
    between = min(p["wall_s"] - sum(p["latencies_s"]) for p in passes)
    ops = latency_summary(best)
    metrics = {"setup_s": statistics.median(p["setup_s"] for p in passes),
               "wall_s": sum(best) + between,
               "op_p50_ms": ops["p50_ms"],
               "op_tail_ms": ops["tail_ms"],
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}
    tail = {k: ops[k] for k in ("tail_percentile", "samples", "beyond_tail")}
    return metrics, tail


def counters(layers: dict) -> dict:
    """The per-layer values that must repeat exactly: everything but times."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graphfree" / "__init__.py").is_file():
        print(f"error: no graphfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(args.workload, args.seed))
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1]["total_s"] > args.seconds:
            break

    # Each traced pass follows an untraced one of its own, so the overhead
    # compares the same number of passes taken at nearly the same time.
    paired, traced = [], []
    if args.trace:
        OUT.mkdir(exist_ok=True)
        for k in range(TRACED_PASSES):
            spans = OUT / f"spans-{args.workload}-seed{args.seed}-{k}.npz"
            paired.append(run_pass(args.workload, args.seed))
            traced.append(run_pass(args.workload, args.seed, spans))

    everything = passes + paired + traced
    n_ops = {len(p["latencies_s"]) for p in everything}
    attempted = sum(len(p["latencies_s"]) for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    problems = [f"operation {label} failed: {detail}" for label, detail in failures]
    if len(n_ops) != 1:
        problems.append(f"passes ran different operation counts: {sorted(n_ops)}")

    env = dict(passes[0]["env"], seed=args.seed, commit=git_commit(),
               src_sha256=source_digest())
    e2e, tail = end_to_end(passes)
    e2e_all = dict(e2e, fail_ratio=len(failures) / attempted)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}: {len(passes)} untraced passes of "
          f"{tail['samples']} operations, seed {args.seed}")
    for name, value in e2e_all.items():
        print(f"# {name:<12} {value:.6g} {UNITS[name]}")
    print(f"# op_tail_ms is p{tail['tail_percentile']} of {tail['samples']} operations "
          f"({tail['beyond_tail']} beyond it), each operation's best over passes; "
          f"{len(failures)} of {attempted} operations failed")

    record = {"workload": args.workload, "env": env, "end_to_end": e2e_all,
              "tail": tail, "attempted": attempted, "failed": len(failures),
              "passes": [{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb",
                                            "latencies_s")} for p in passes]}
    if args.trace:
        first, second = (counters(p["layers"]) for p in traced)
        drift = sorted(k for k in first if first[k] != second[k])
        if drift:
            problems.append("work counters differ between two traced runs of "
                            f"seed {args.seed}: {', '.join(drift)}")
        overhead = min(p["wall_s"] for p in traced) - min(p["wall_s"] for p in paired)
        layers = {name: min(p["layers"][name] for p in traced)
                  if name.endswith("_s") else traced[0]["layers"][name]
                  for name in metric_names()}
        layers["trace_overhead_s"] = overhead
        print(f"# traced: {len(traced)} passes, {traced[0]['spans']} spans each; times are "
              f"the best of the traced passes; trace_overhead_s {overhead:.6g} s "
              f"(best traced minus best of the {len(paired)} untraced passes run "
              "alternately with them)")
        for name, value in layers.items():
            print(f"# {name} {value:.6g}")
        record["layers"] = layers
        metrics = {name: {"value": value, "unit": metric_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in e2e.items()}

    for line in problems:
        print(f"FAIL: {line}", file=sys.stderr)
        print(f"# FAIL: {line.splitlines()[0]}")
    record["problems"] = problems
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
