"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py [--compare perfbench/out/steady-<earlier>.json]

Runs ``run.py --trace 0`` once per seed and workload of BENCHMARK.json,
with its ``run_seconds``, seed-major so the workloads interleave in time.
For every workload and metric it prints the median over seeds and the
spread (Q3 - Q1) / median, flagged when it exceeds a third of the
metric's bound (``!``) or the bound itself (``!!``; ``setup_s`` is
exempt, as in the acceptance rule). With ``--compare`` it also prints
how far each median moved against an earlier set, and flags a move
worse than the bound. Exits 1 if any run fails or any flag is ``!!``
or ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402

SEEDS = range(1, 11)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: {m: [] for m in metrics} for w in workloads}
    failed = False
    for seed in SEEDS:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                failed = True
                print(f"seed {seed} {w}: FAILED (exit {proc.returncode})\n{proc.stderr}")
                continue
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"seed {seed} {w}: {took:.1f} s, " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in metrics), flush=True)

    earlier = json.loads(args.compare.read_text()) if args.compare else None
    summary = {}
    print(f"\n{'workload':<16} {'metric':<12} {'median':>10} {'spread':>7} {'bound':>6}"
          + (f" {'moved':>7}" if earlier else ""))
    for w in workloads:
        for m, spec in metrics.items():
            xs = values[w][m]
            if len(xs) < 2:
                continue
            med, spread, bound = statistics.median(xs), quartile_spread(xs), spec["bound"]
            summary.setdefault(w, {})[m] = {"median": med, "spread": spread, "values": xs}
            flag = ("!!" if spread > bound and m != "setup_s"
                    else "!" if spread > bound / 3 else "")
            line = f"{w:<16} {m:<12} {med:>10.4g} {spread:>7.3f} {bound:>6.2f}"
            if earlier and m in earlier.get(w, {}):
                moved = med / earlier[w][m]["median"] - 1
                line += f" {moved:>+7.3f}"
                if moved > bound:
                    flag += " worse"
            failed |= "!!" in flag or "worse" in flag
            print(f"{line} {flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"\nwritten to {path.relative_to(ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
