"""Acceptance gate: one test per criterion, one [PASS]/[FAIL] line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
Everything asserted here is exact unless a tolerance is stated inline.
"""

import time
from fractions import Fraction

from powerpoly import (
    average_representation_index,
    average_weight_index,
    check_axioms,
    dummy_revealing,
    is_feasible_weights,
    is_representation,
    is_representation_compatible_at,
    l1_distance,
    parse_game,
    shapley_shubik,
)
from powerpoly.estimate import estimate_centroid_mc
from powerpoly.exact_math import decimal_str
from powerpoly.integer_reps import (
    enumerate_integer_feasible_weights,
    enumerate_integer_representations,
)
from powerpoly.polytope import (
    build_representation_polytope,
    build_weight_polytope,
    centroid,
    enumerate_vertices,
    moments,
    triangulate,
    volume,
)

from conftest import cached_index, mc_seed
from integration_oracle import _eliminate, _simplex_volume, oracle_triangulate
from expected_values import (
    DISTANCE_EXAMPLE,
    GRID_COUNTS,
    GRID_DECIMALS,
    SSI_INCOMPATIBLE,
    SSI_SMALL,
    TABLE,
    WORKED,
)
from test_indices import ssi_by_permutations


def _report(num, desc, check):
    try:
        check()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_catalogue_golden_suite():
    def check():
        start = time.monotonic()
        assert len(TABLE) == 37
        for spec, (aw_expected, ar_expected) in TABLE.items():
            game = parse_game(spec)
            assert cached_index("avg-weight", game).values == aw_expected, spec
            assert cached_index("avg-rep", game).values == ar_expected, spec
        assert time.monotonic() - start < 60

    _report(
        1,
        "all 37 catalogued games match the frozen index fractions exactly",
        check,
    )


def test_criterion_2_worked_integrals():
    def check():
        game = parse_game(WORKED["spec"])
        wp = build_weight_polytope(game)
        assert volume(wp) == WORKED["weight_volume"]
        assert moments(wp) == WORKED["weight_moments"]
        rp = build_representation_polytope(game)
        assert volume(rp) == WORKED["rep_volume"]
        assert moments(rp)[1:] == WORKED["rep_w_moments"]
        assert average_weight_index(game).values == WORKED["avg_weight"]
        ar = average_representation_index(game)
        assert ar.values == WORKED["avg_rep"]
        assert ar.avg_quota == Fraction(2, 3)

    _report(
        2,
        "worked example volumes, moments and indices are exact",
        check,
    )


def test_criterion_3_ssi_suite():
    def check():
        for spec, (expected, quota) in SSI_SMALL.items():
            game = parse_game(spec)
            idx = shapley_shubik(game)
            assert idx.values == expected, spec
            assert is_representation_compatible_at(game, idx), spec
            # the listed quota turns the SSI vector into a representation
            assert is_representation(game, quota, idx.values), spec
        spec, expected = SSI_INCOMPATIBLE
        game = parse_game(spec)
        idx = shapley_shubik(game)
        assert idx.values == expected
        assert not is_representation_compatible_at(game, idx)

    _report(
        3,
        "twelve small-game SSI vectors exact and compatible; the "
        "four-voter counterexample is incompatible",
        check,
    )


def test_criterion_4_counting_suite():
    def check():
        start = time.monotonic()
        for spec, by_total in GRID_COUNTS.items():
            game = parse_game(spec)
            for total, (fw_count, rep_count) in by_total.items():
                summary = enumerate_integer_feasible_weights(game, total)
                assert summary.count == fw_count, (spec, total)
                key = (spec, total)
                if key in GRID_DECIMALS:
                    decs = tuple(
                        decimal_str(v, 6) for v in summary.average
                    )
                    assert decs == GRID_DECIMALS[key]
                if rep_count is not None:
                    reps = enumerate_integer_representations(game, total)
                    assert reps.count == rep_count, (spec, total)
        assert time.monotonic() - start < 120

    _report(
        4,
        "integer grid counts and 6-decimal averages match exactly",
        check,
    )


def test_criterion_5_distance_checks():
    def check():
        x, y, expected = DISTANCE_EXAMPLE
        assert l1_distance(x, y) == expected
        game = parse_game("[3;2,1,1]")
        gap = l1_distance(
            average_weight_index(game).values, shapley_shubik(game).values
        )
        assert gap == Fraction(1, 9)

    _report(5, "l1 distances equal 97/150 and 1/9 exactly", check)


def _mc_samples(kind, n):
    if kind == "weight":
        return 400_000 if n >= 5 else 200_000
    return 1_500_000 if n >= 5 else 300_000


def _battery_game(game):
    ssi = cached_index("ssi", game)
    assert ssi.values == ssi_by_permutations(game)

    indices = {
        kind: cached_index(kind, game)
        for kind in ("ssi", "avg-weight", "avg-rep")
    }
    for kind, idx in indices.items():
        # IndexVector construction already enforces the unit sum and
        # nonnegativity; restate both explicitly
        assert sum(idx.values, Fraction(0)) == 1, (kind, game)
        assert all(v >= 0 for v in idx.values), (kind, game)
        report = check_axioms(game, idx)
        assert report.symmetric, (kind, game)
        assert report.efficient and report.positive, (kind, game)
        revealed = dummy_revealing(kind, game)
        assert check_axioms(game, revealed).dummy_property, (kind, game)

    dual = game.dual()
    assert cached_index("avg-weight", dual).values == indices["avg-weight"].values
    dual_ar = cached_index("avg-rep", dual)
    assert dual_ar.values == indices["avg-rep"].values
    assert dual_ar.avg_quota == 1 - indices["avg-rep"].avg_quota

    assert is_feasible_weights(game, indices["avg-weight"].values)
    assert is_representation_compatible_at(game, indices["avg-rep"])
    assert is_representation(
        game, indices["avg-rep"].avg_quota, indices["avg-rep"].values
    )


def _battery_geometry(game):
    for kind, build in (
        ("weight", build_weight_polytope),
        ("rep", build_representation_polytope),
    ):
        poly = build(game)
        d = poly.dim
        verts = enumerate_vertices(poly)
        assert verts, (kind, game)
        for v in verts:
            for idx, con in enumerate(poly.constraints):
                val = sum(
                    (c * x for c, x in zip(con.a, v.coords)), Fraction(0)
                )
                assert val <= con.b, (kind, game)
                assert (val == con.b) == (idx in v.active), (kind, game)
            rows = [list(poly.constraints[i].a) for i in sorted(v.active)]
            assert _eliminate(rows)[0] == d, (kind, game)
        if d == 0:
            continue
        for rule, cells in (
            ("lexmin", triangulate(poly)),
            ("lexmax", oracle_triangulate(poly, "lexmax")),
        ):
            assert sum(
                (_simplex_volume(c) for c in cells), Fraction(0)
            ) == volume(poly), (kind, game, rule)

        exact = centroid(poly)
        est, se = estimate_centroid_mc(
            poly, _mc_samples(kind, game.n), mc_seed(game)
        )
        for apx, ref, err in zip(est, exact, se):
            assert abs(apx - float(ref)) <= 4 * err, (kind, game)


def test_criterion_6_property_battery(corpus, random_n5):
    def check():
        start = time.monotonic()
        for game in corpus + random_n5:
            _battery_game(game)
            _battery_geometry(game)
        assert time.monotonic() - start < 300

    _report(
        6,
        "axioms, duality, oracles, MC agreement and geometry cross-checks "
        "hold on the catalogue plus 20 random five-voter games",
        check,
    )
