"""Steadiness self-check: two sets of runs against the benchmark's bounds.

    python3 bench/steady.py [--runs 5] [--sets 2] [--workload NAME ...]

Runs bench/run.py with --trace 0 for RUNS distinct seeds per set and per
workload, sequentially, from the repository root. For every end-to-end
metric it prints the interquartile distance of all runs as a share of
their median, and how much worse each later set's median is than the
first set's. It fails when a spread (set-up time excepted) or a drift
exceeds the metric's bound in BENCHMARK.json, and flags spreads above a
third of the bound. Raw results go to .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def worse_by(base: float, value: float, better: str) -> float:
    """Share of `base` by which `value` is worse (negative when better)."""
    return (value - base) / base if better == "lower" else (base - value) / base


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    results: dict = {}
    ok = True
    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1000 * (s + 1) + i
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600,
                )
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
                metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
                runs.append({k: v["value"] for k, v in metrics.items()})
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            sets.append(runs)
        results[workload] = sets
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for runs in sets for r in runs]
            sp = spread(values) if len(values) >= 2 else 0.0
            medians = [statistics.median(r[name] for r in runs) for runs in sets]
            drift = max(
                (worse_by(medians[0], m, metric["better"]) for m in medians[1:]),
                default=0.0,
            )
            verdict = "ok"
            if drift > bound or (name != "setup_s" and sp > bound):
                verdict = "FAIL"
                ok = False
            elif name != "setup_s" and sp > bound / 3:
                verdict = "wide"
            print(f"  {workload:14s} {name:14s} median {statistics.median(values):10.4g}"
                  f"  spread {sp:6.3f}  drift {drift:+6.3f}  bound {bound}  {verdict}")
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
