"""One benchmark workload in a fresh, single-threaded process.

    PYTHONPATH=src python3 bench/workload.py WORKLOAD --seed N --seconds S --mode MODE

MODE "setup" sets up and exits. "plain" runs untraced passes over the
seeded requests until S seconds have passed, at least MIN_PASSES passes
are done and the percentiles have enough samples. "trace" alternates
untraced and traced passes for S seconds. Every result is checked
between calls, outside the timed region. Prints one JSON line of raw
measurements; exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from stats import min_samples

BENCH = Path(__file__).resolve().parent
MIN_PASSES = 5
MIN_CALLS = min_samples(0.9)

# span name -> per-layer metric, for span self times
TIME_METRICS = {
    "game_core.parse_game": "game_core.parse_game.s",
    "polytope.build": "polytope.build.s",
    "polytope.enumerate_vertices": "polytope.enumerate_vertices.s",
    "polytope.triangulate": "polytope.triangulate.s",
    "polytope.volume": "polytope.volume.s",
    "polytope.moments": "polytope.moments.s",
    "polytope.centroid": "polytope.centroid.s",
    "polytope.estimate_centroid_mc": "polytope.estimate_centroid_mc.s",
    "indices.shapley_shubik": "indices.shapley_shubik.s",
    "indices.check_axioms": "indices.check_axioms.s",
    "integer_reps.scan": "integer_reps.scan.s",
    "cli.main": "cli.main.s",
}
COUNT_METRICS = (
    "game_core.mwc",
    "game_core.mlc",
    "polytope.build.rows",
    "polytope.enumerate_vertices.vertices",
    "polytope.triangulate.simplices",
    "polytope.estimate_centroid_mc.failed",
    "integer_reps.scan.points",
)
# library spans replayed behind a CLI call, subtracted for cli.self_s
LIBRARY_SPANS = set(TIME_METRICS) - {"cli.main"}


def layer_metrics(tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, from span self times and counts."""
    self_s = tracer.self_times()
    out = {m: self_s.get(span, 0.0) / passes for span, m in TIME_METRICS.items()}
    for name in COUNT_METRICS:
        out[name] = tracer.counts.get(name, 0.0) / passes
    replayed = sum(
        end - start
        for name, start, end, parent, _ in tracer.spans
        if name in LIBRARY_SPANS and parent >= 0
        and tracer.spans[parent][0] == "cli.replay"
    )
    out["cli.self_s"] = out["cli.main.s"] - replayed / passes
    mc_s = self_s.get("polytope.estimate_centroid_mc", 0.0)
    samples = tracer.counts.get("polytope.estimate_centroid_mc.samples", 0.0)
    out["polytope.estimate_centroid_mc.samples_per_s"] = samples / mc_s if mc_s else 0.0
    scan_s = self_s.get("integer_reps.scan", 0.0)
    points = tracer.counts.get("integer_reps.scan.points", 0.0)
    out["integer_reps.scan.points_per_s"] = points / scan_s if scan_s else 0.0
    return out


def run_pass(calls, first, tracer=None):
    """One pass over the requests; returns (call durations, refused count)."""
    from calls import Mismatch, Refused

    durations = []
    refused = 0
    for i, call in enumerate(calls):
        if tracer is None:
            t = time.perf_counter()
            result = call.run()
            durations.append(time.perf_counter() - t)
        else:
            tracer.call_id += 1
            t = time.perf_counter()
            with tracer.span("call"):
                result = call.traced(tracer)
            durations.append(time.perf_counter() - t)
            call.replay(tracer)
        refused += isinstance(result, Refused)
        try:
            if first[i] is None:
                call.check(result)
                first[i] = result
            elif result != first[i]:
                raise Mismatch(f"differs from the first untraced result: {result!r}")
        except Mismatch as exc:
            sys.stderr.write(f"MISMATCH in {call.label}: {exc}\n")
            sys.exit(1)
    return durations, refused


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    # Set-up time starts before powerpoly (imported by calls) is loaded.
    t0 = time.perf_counter()
    import calls as requests

    goldens = json.loads((BENCH / "goldens.json").read_text())
    calls = requests.build(args.workload, args.seed, goldens)
    setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(report))
        return

    from spans import Tracer

    # The benchmark's own objects (goldens, requests) should not lengthen
    # the program's garbage collections.
    gc.collect()
    gc.freeze()
    first = [None] * len(calls)
    tracer = Tracer()
    plain, traced = [], []
    attempted = refused = 0
    start = time.perf_counter()
    while True:
        trace_now = args.mode == "trace" and len(plain) > len(traced)
        durations, n_refused = run_pass(calls, first, tracer if trace_now else None)
        (traced if trace_now else plain).append(durations)
        attempted += len(durations)
        refused += n_refused
        elapsed = time.perf_counter() - start
        if args.mode == "trace":
            if elapsed >= args.seconds and traced and len(plain) == len(traced) + 1:
                break
        elif (
            elapsed >= args.seconds
            and len(plain) >= MIN_PASSES
            and sum(map(len, plain)) >= MIN_CALLS
        ):
            break

    report.update(
        attempted=attempted,
        refused=refused,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        call_s=[d for p in plain for d in p],
        pass_rates=[len(p) / sum(p) for p in plain],
    )
    if args.mode == "trace":
        report["traced_pass_rates"] = [len(p) / sum(p) for p in traced]
        report["layers"] = layer_metrics(tracer, len(traced))
        report["layers"]["trace.call.s"] = sum(map(sum, traced)) / len(traced)
        if args.trace_out is not None:
            tracer.dump(args.trace_out)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
