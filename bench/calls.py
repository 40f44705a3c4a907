"""Requests the benchmark sends, built from a seed, with their checks.

Each request runs untraced (`run`) or stage by stage under a Tracer
(`traced`), and `check` compares its result with the goldens captured
by capture_goldens.py and with invariants that hold for any seed.

The seed picks, for each game of a fixed pool, another representation
of the same game (quota and weights times a common factor), and the
request order, CLI flags and Monte Carlo (MC) seeds. It draws no new
coalition structures and does not reorder voters, because both change
the cost of an exact call: over random 5-voter structures a call takes
5 ms to 9 s, and reordering voters changes the chart and the order of
the constraint rows that vertex enumeration walks through.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction
from math import comb

import powerpoly as pp
from powerpoly import cli

from spans import Tracer

# approx: (game, total) for integer grid scans, each with and without quota
GRID_CASES = (
    ("[5;3,2,2,1]", 120),
    ("[3;2,1,1,1]", 120),
    ("[8;5,3,2,2,1]", 40),
    ("[7;3,3,2,2,1]", 40),
)
# approx: MC games for n = 5..9, each on both polytopes. The n = 5 games
# come from the exact pool, so their exact centroids are goldens; they
# accept over 1% of samples, enough for the 5-standard-error check to be
# reliable. Beyond n = 5 most estimates are refused as inconclusive,
# which is the traffic shown.
MC_GAMES = (
    "[1;1,4,2,2,0]",
    "[2;1,3,4,3,2]",
    "[9;2,3,2,2,0]",
    "[2;1,1,1,0,0,0]",
    "[9;5,4,3,2,1,1]",
    "[10;6,5,4,3,2,1,1]",
    "[13;8,6,5,4,3,2,1,1]",
    "[20;9,8,7,6,5,4,3,2,1]",
)
# MC memory grows as samples x rows (one float64 matrix per batch); this
# caps samples x |MWC|*|MLC| so the largest game stays near 200 MB RSS.
MC_ELEMENTS = 8_000_000
MC_MAX_SAMPLES = 1 << 17
MC_MAX_SE = 5

INDEX_FN = {
    pp.KIND_AVG_WEIGHT: pp.average_weight_index,
    pp.KIND_AVG_REP: pp.average_representation_index,
}


class Mismatch(Exception):
    """A result disagrees with its golden or an invariant."""


class Refused:
    """A documented error in place of a result."""

    def __init__(self, message: str) -> None:
        self.message = message

    def __eq__(self, other) -> bool:
        return isinstance(other, Refused) and other.message == self.message

    def __repr__(self) -> str:
        return f"Refused({self.message!r})"


def scaled(spec: str, factor: int) -> str:
    """The same game with quota and weights multiplied by `factor`."""
    quota, body = spec.strip().strip("[]").split(";")
    weights = [Fraction(w) * factor for w in body.split(",")]
    return "[%s;%s]" % (Fraction(quota) * factor, ",".join(map(str, weights)))


def fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# -- traced stages -------------------------------------------------------

def traced_parse(tr: Tracer, spec: str) -> pp.WeightedGame:
    with tr.span("game_core.parse_game"):
        game = pp.parse_game(spec)
    tr.count("game_core.mwc", len(game.minimal_winning))
    tr.count("game_core.mlc", len(game.maximal_losing))
    return game


def traced_build(tr: Tracer, game: pp.WeightedGame, rep: bool) -> pp.HPolytope:
    build = pp.build_representation_polytope if rep else pp.build_weight_polytope
    with tr.span("polytope.build"):
        poly = build(game)
    tr.count("polytope.build.rows", len(poly.constraints))
    return poly


def traced_centroid(tr: Tracer, game: pp.WeightedGame, rep: bool):
    """Exact pipeline one public stage at a time.

    The polytope memoizes each stage, so every span holds only its own
    stage's work.
    """
    poly = traced_build(tr, game, rep)
    with tr.span("polytope.enumerate_vertices"):
        verts = pp.enumerate_vertices(poly)
    tr.count("polytope.enumerate_vertices.vertices", len(verts))
    with tr.span("polytope.triangulate"):
        cells = pp.triangulate(poly)
    tr.count("polytope.triangulate.simplices", len(cells))
    with tr.span("polytope.volume"):
        pp.volume(poly)
    with tr.span("polytope.moments"):
        pp.moments(poly)
    with tr.span("polytope.centroid"):
        return pp.centroid(poly)


def traced_index(tr: Tracer, game: pp.WeightedGame, kind: str) -> pp.IndexVector:
    """average_*_index assembled from its stages."""
    if kind == pp.KIND_AVG_WEIGHT:
        c = traced_centroid(tr, game, rep=False)
        return pp.IndexVector(tuple(c) + (1 - sum(c, Fraction(0)),), kind)
    c = traced_centroid(tr, game, rep=True)
    weights = tuple(c[1:])
    return pp.IndexVector(
        weights + (1 - sum(weights, Fraction(0)),), kind, avg_quota=c[0]
    )


# -- requests ------------------------------------------------------------

class Call:
    label = ""

    def run(self):
        raise NotImplementedError

    def traced(self, tr: Tracer):
        raise NotImplementedError

    def replay(self, tr: Tracer) -> None:
        """Trace the library calls behind a front-end call, outside its span."""

    def check(self, result) -> None:
        raise NotImplementedError


class CliCall(Call):
    def __init__(self, argv: list[str], expected: str, catalogue: list[str]) -> None:
        self.argv = argv
        self.expected = expected
        self.catalogue = catalogue
        self.label = "cli " + " ".join(argv)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
        if code:
            return Refused(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def traced(self, tr):
        with tr.span("cli.main"):
            return self.run()

    def replay(self, tr):
        with tr.span("cli.replay"):
            self._replay(tr)

    def _replay(self, tr):
        if self.argv[0] == "table":
            for spec in self.catalogue:
                game = traced_parse(tr, spec)
                traced_index(tr, game, pp.KIND_AVG_WEIGHT)
                traced_index(tr, game, pp.KIND_AVG_REP)
            return
        kind = self.argv[self.argv.index("--kind") + 1]
        game = traced_parse(tr, self.argv[self.argv.index("--game") + 1])
        if self.argv[0] == "polytope":
            traced_centroid(tr, game, rep=kind == "rep")
            return
        if kind == pp.KIND_SSI:
            with tr.span("indices.shapley_shubik"):
                index = pp.shapley_shubik(game)
        else:
            index = traced_index(tr, game, kind)
        if "--axioms" in self.argv:
            with tr.span("indices.check_axioms"):
                pp.check_axioms(game, index)

    def check(self, result):
        require(result == self.expected, f"stdout differs from golden: {result!r}")


class IndexCall(Call):
    def __init__(self, spec, kind, values, avg_quota) -> None:
        self.spec = spec
        self.kind = kind
        self.values = values
        self.avg_quota = avg_quota
        self.label = f"{kind} {spec}"

    def run(self):
        return INDEX_FN[self.kind](pp.parse_game(self.spec))

    def traced(self, tr):
        return traced_index(tr, traced_parse(tr, self.spec), self.kind)

    def check(self, result):
        game = pp.parse_game(self.spec)
        require(result.values == self.values, f"values {result.values}")
        require(result.avg_quota == self.avg_quota, f"avg quota {result.avg_quota}")
        require(sum(result.values, Fraction(0)) == 1, "index does not sum to 1")
        require(pp.is_feasible_weights(game, result.values), "index not feasible")
        if self.kind == pp.KIND_AVG_REP:
            require(
                pp.is_representation(game, result.avg_quota, result.values),
                "avg quota and index do not represent the game",
            )


class GridCall(Call):
    def __init__(self, spec, total, with_quota, count, average) -> None:
        self.spec = spec
        self.total = total
        self.with_quota = with_quota
        self.count = count
        self.average = average
        n = spec.count(",") + 1
        self.points = comb(total + n - 1, n - 1)
        self.label = f"grid {spec} total={total} with_quota={with_quota}"

    def _scan(self, game):
        if self.with_quota:
            return pp.enumerate_integer_representations(game, self.total)
        return pp.enumerate_integer_feasible_weights(game, self.total)

    def run(self):
        return self._scan(pp.parse_game(self.spec))

    def traced(self, tr):
        game = traced_parse(tr, self.spec)
        with tr.span("integer_reps.scan"):
            result = self._scan(game)
        # computed from the inputs, not reported by the program
        tr.count("integer_reps.scan.points", self.points)
        return result

    def check(self, result):
        require(result.count == self.count, f"count {result.count}")
        require(result.average == self.average, f"average {result.average}")
        require(sum(result.average, Fraction(0)) == 1, "average does not sum to 1")
        game = pp.parse_game(self.spec)
        require(pp.is_feasible_weights(game, result.average), "average not feasible")


class McCall(Call):
    def __init__(self, spec, rep, samples, seed, exact) -> None:
        self.spec = spec
        self.rep = rep
        self.samples = samples
        self.seed = seed
        self.exact = exact  # exact chart centroid, or None beyond n = 5
        kind = "rep" if rep else "weight"
        self.label = f"mc {kind} {spec} samples={samples} seed={seed}"

    def _estimate(self, poly):
        try:
            return pp.estimate_centroid_mc(poly, self.samples, self.seed)
        except pp.EstimateInconclusiveError as exc:
            return Refused(str(exc))

    def run(self):
        poly = (
            pp.build_representation_polytope
            if self.rep
            else pp.build_weight_polytope
        )(pp.parse_game(self.spec))
        return self._estimate(poly)

    def traced(self, tr):
        poly = traced_build(tr, traced_parse(tr, self.spec), self.rep)
        with tr.span("polytope.estimate_centroid_mc"):
            result = self._estimate(poly)
        tr.count("polytope.estimate_centroid_mc.samples", self.samples)
        tr.count("polytope.estimate_centroid_mc.failed", isinstance(result, Refused))
        return result

    def check(self, result):
        if isinstance(result, Refused):
            return
        est, err = result
        require(
            all(math.isfinite(s) and s >= 0 for s in err), f"stderr {err}"
        )
        require(all(-1e-9 <= x <= 1 + 1e-9 for x in est), f"estimate {est}")
        if self.exact is not None:
            require(
                all(
                    abs(x - float(c)) <= MC_MAX_SE * s
                    for x, c, s in zip(est, self.exact, err)
                ),
                f"estimate {est} +- {err} misses exact {self.exact}",
            )


# -- workloads -------------------------------------------------------------

def _cli_catalogue(rng, goldens):
    catalogue = goldens["catalogue"]
    expected = {"\0".join(argv): out for argv, out in goldens["cli"]}
    argvs = []
    for spec in catalogue:
        for kind in (pp.KIND_SSI, pp.KIND_AVG_WEIGHT, pp.KIND_AVG_REP):
            flag = rng.choice(("--axioms", "--json"))
            argvs.append(["index", "--kind", kind, "--game", spec, flag])
        for kind in ("weight", "rep"):
            argvs.append(["polytope", "--kind", kind, "--game", spec])
    argvs += [["table"], ["table", "--json"]]
    return [CliCall(a, expected["\0".join(a)], catalogue) for a in argvs]


def _exact_n5(rng, goldens):
    calls = []
    for entry in goldens["exact"]:
        spec = scaled(entry["game"], rng.randint(1, 9))
        calls.append(
            IndexCall(spec, pp.KIND_AVG_WEIGHT, fractions(entry["avg-weight"]), None)
        )
        calls.append(
            IndexCall(
                spec,
                pp.KIND_AVG_REP,
                fractions(entry["avg-rep"]),
                Fraction(entry["avg_quota"]),
            )
        )
    return calls


def _approx(rng, goldens):
    calls = [
        GridCall(
            scaled(entry["game"], rng.randint(1, 9)),
            entry["total"],
            entry["with_quota"],
            entry["count"],
            fractions(entry["average"]),
        )
        for entry in goldens["grid"]
    ]
    exact = {entry["game"]: entry for entry in goldens["exact"]}
    for base in MC_GAMES:
        spec = scaled(base, rng.randint(1, 9))
        game = pp.parse_game(spec)
        rows = len(game.minimal_winning) * len(game.maximal_losing) + game.n
        samples = min(MC_MAX_SAMPLES, MC_ELEMENTS // rows)
        golden = exact.get(base)
        if golden is None and game.n <= 5:
            raise Mismatch(f"no exact golden for MC game {base}")
        for rep in (False, True):
            chart = None
            if golden is not None:
                if rep:
                    full = fractions(golden["avg-rep"])
                    chart = (Fraction(golden["avg_quota"]),) + full[:-1]
                else:
                    chart = fractions(golden["avg-weight"])[:-1]
            calls.append(McCall(spec, rep, samples, rng.randrange(1 << 32), chart))
    return calls


WORKLOADS = {
    "cli-catalogue": _cli_catalogue,
    "exact-n5": _exact_n5,
    "approx": _approx,
}


def build(workload: str, seed: int, goldens: dict) -> list[Call]:
    """The requests of one pass, in seeded order."""
    rng = random.Random(seed)
    calls = WORKLOADS[workload](rng, goldens)
    rng.shuffle(calls)
    return calls
