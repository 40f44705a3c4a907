"""Capture the benchmark's goldens from the current source tree.

    PYTHONPATH=src python3 bench/capture_goldens.py

Writes bench/goldens.json: CLI stdout bytes for every cli-catalogue
request, exact index vectors and average quotas for the exact-n5 pool,
and grid counts and averages for the approx scans. Before writing, the
catalogue results are checked against tests/expected_values.TABLE, which
was derived with independent oracles. Run it again only on purpose: a
changed golden is a changed contract.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import powerpoly as pp

from calls import GRID_CASES, MC_GAMES, CliCall, Refused

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "goldens.json"

# The pool generator of tests/conftest.py::random_games, default seed.
POOL_SEED = 20260819
POOL_SIZE = 20
# Fixed 5-voter games added to the pool.
EXACT_FIXED = ("[8;5,3,2,2,1]", "[7;3,3,2,2,1]")


def random_games(count=POOL_SIZE, voters=5, seed=POOL_SEED) -> list[str]:
    rng = random.Random(seed)
    specs = []
    seen = set()
    while len(specs) < count:
        weights = [rng.randint(0, 4) for _ in range(voters)]
        total = sum(weights)
        if total == 0:
            continue
        quota = rng.randint(1, total)
        spec = "[%d;%s]" % (quota, ",".join(str(w) for w in weights))
        game = pp.parse_game(spec)
        if game in seen:
            continue
        seen.add(game)
        specs.append(spec)
    return specs


def strs(values) -> list[str]:
    return [str(v) for v in values]


def cli_goldens(catalogue: list[str]) -> list:
    argvs = []
    for spec in catalogue:
        for kind in (pp.KIND_SSI, pp.KIND_AVG_WEIGHT, pp.KIND_AVG_REP):
            for flag in ("--axioms", "--json"):
                argvs.append(["index", "--kind", kind, "--game", spec, flag])
        for kind in ("weight", "rep"):
            argvs.append(["polytope", "--kind", kind, "--game", spec])
    argvs += [["table"], ["table", "--json"]]
    out = []
    for argv in argvs:
        result = CliCall(argv, None, catalogue).run()
        if isinstance(result, Refused):
            sys.exit(f"capture failed: {argv}: {result.message}")
        out.append([argv, result])
    return out


def check_catalogue(catalogue: list[str], cli: list) -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    from expected_values import TABLE

    if list(TABLE) != catalogue:
        sys.exit("catalogue order differs from tests/expected_values.TABLE")
    stdout = {"\0".join(argv): text for argv, text in cli}
    for spec, (weight, rep) in TABLE.items():
        for kind, values in ((pp.KIND_AVG_WEIGHT, weight), (pp.KIND_AVG_REP, rep)):
            first = stdout["\0".join(["index", "--kind", kind, "--game", spec, "--axioms"])]
            if first.splitlines()[0] != " ".join(strs(values)):
                sys.exit(f"{kind} {spec}: CLI output disagrees with TABLE")
    table = stdout["table"].splitlines()
    for line, (spec, (weight, rep)) in zip(table, TABLE.items()):
        want = f"{spec} | avg-weight {' '.join(strs(weight))} | avg-rep {' '.join(strs(rep))}"
        if line != want:
            sys.exit(f"table line disagrees with TABLE: {line!r}")


def main() -> None:
    catalogue = list(pp.CANONICAL_GAMES)
    cli = cli_goldens(catalogue)
    check_catalogue(catalogue, cli)

    exact = []
    for spec in random_games() + list(EXACT_FIXED):
        game = pp.parse_game(spec)
        aw = pp.average_weight_index(game)
        ar = pp.average_representation_index(game)
        exact.append(
            {
                "game": spec,
                "avg-weight": strs(aw.values),
                "avg-rep": strs(ar.values),
                "avg_quota": str(ar.avg_quota),
            }
        )
    pool = {entry["game"] for entry in exact}
    missing = [s for s in MC_GAMES if s.count(",") == 4 and s not in pool]
    if missing:
        sys.exit(f"5-voter MC games missing from the exact pool: {missing}")

    grid = []
    for spec, total in GRID_CASES:
        game = pp.parse_game(spec)
        for with_quota in (False, True):
            scan = (
                pp.enumerate_integer_representations
                if with_quota
                else pp.enumerate_integer_feasible_weights
            )
            summary = scan(game, total)
            grid.append(
                {
                    "game": spec,
                    "total": total,
                    "with_quota": with_quota,
                    "count": summary.count,
                    "average": strs(summary.average),
                }
            )

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    doc = {
        "commit": commit,
        "catalogue": catalogue,
        "cli": cli,
        "exact": exact,
        "grid": grid,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}: {len(cli)} CLI outputs, "
          f"{len(exact)} exact games, {len(grid)} grid scans")


if __name__ == "__main__":
    main()
