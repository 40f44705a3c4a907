"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in fresh,
single-threaded Python processes that load the package from src/
(workload.py). With --trace 0, SETUP_RUNS set-up-only processes and one
measuring process give the end-to-end metrics; with --trace 1, one
process alternates untraced and traced passes and gives the per-layer
metrics, with the spans written to .bench_out/. Every metric is printed
by name with its unit, then one JSON line with the keys correct,
attempted, failed and metrics.

`failed` counts requests that ended in an error the program does not
document; such an error stops the run, so a printed result has none.
Documented refusals (an inconclusive MC estimate, a scale refusal, a
nonzero CLI exit) are answers and show in answered_frac. Exits nonzero
without a result when the source tree is missing, a workload process
fails, or a result disagrees with the goldens or an invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# exact-n5 runs by hand only; BENCHMARK.json leaves it out because its
# median latency spreads wider between runs than any bound it may have.
WORKLOADS = ("cli-catalogue", "exact-n5", "approx")
SETUP_RUNS = 6  # with the measuring process, set-up is the median of seven
DEADLINE_S = 170


def workload_process(argv: list[str], timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"workload process exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(report: dict, setups: list[float]) -> tuple[dict, dict]:
    calls = report["call_s"]
    passes = len(report["pass_rates"])
    requests = len(calls) // passes
    # A request's latency is its median duration over the passes, so a
    # burst of machine noise that slows or speeds up one pass does not
    # move it; the percentiles count each request once per pass.
    latency = [statistics.median(calls[i::requests]) for i in range(requests)]
    samples = latency * passes
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "calls_per_s": f"{requests} requests, median of {passes} passes each",
    }
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "calls_per_s": (requests / sum(latency), "1/s"),
    }
    for q in (0.5, 0.9):
        name = f"call_ms.p{round(q * 100)}"
        value = percentile(samples, q)
        if value is None:
            sys.exit(f"{name}: {len(samples)} samples leave too few beyond it")
        values[name] = (value * 1e3, "ms")
        beyond = sum(1 for c in samples if c > value)
        notes[name] = f"n={len(samples)}, {beyond} beyond"
    values["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
    answered = report["attempted"] - report["refused"]
    values["answered_frac"] = (answered / report["attempted"], "ratio")
    notes["answered_frac"] = f"{answered} of {report['attempted']} answered"
    return values, notes


def per_layer(report: dict) -> tuple[dict, dict]:
    values = {}
    for name, value in report["layers"].items():
        if name.endswith((".s", "self_s")):
            unit = "s"
        elif name.endswith("_per_s"):
            unit = "1/s"
        else:
            unit = "count"
        values[name] = (value, unit)
    traced = report["traced_pass_rates"]
    plain = report["pass_rates"]
    values["trace.calls_per_s"] = (statistics.median(traced), "1/s")
    values["trace.untraced_calls_per_s"] = (statistics.median(plain), "1/s")
    notes = {
        "trace.calls_per_s": f"median of {len(traced)} traced passes",
        "trace.untraced_calls_per_s": f"median of {len(plain)} untraced passes",
    }
    return values, notes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "powerpoly" / "__init__.py").is_file():
        sys.exit(f"no powerpoly source tree under {ROOT / 'src'}")

    start = time.monotonic()
    common = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        report = workload_process(
            common + ["--mode", "trace", "--trace-out", str(out)], DEADLINE_S
        )
        values, notes = per_layer(report)
    else:
        setups = [
            workload_process(common + ["--mode", "setup"], 30)["setup_s"]
            for _ in range(SETUP_RUNS)
        ]
        report = workload_process(
            common + ["--mode", "plain"], DEADLINE_S - (time.monotonic() - start)
        )
        values, notes = end_to_end(report, setups + [report["setup_s"]])

    for name, (value, unit) in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} {value:.6g} {unit}{note}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": report["attempted"],
                "failed": 0,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
