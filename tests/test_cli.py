"""Command line behavior: outputs, exit codes, JSON stability."""

import json
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself requires tomli there
    import tomli as tomllib

from powerpoly import ScaleExceededError, estimate, integer_reps, parse_game, polytope
from powerpoly.cli import PRECISION_ENV, _parser, build_parser, main
from powerpoly.exact_math import decimal_str
from powerpoly.estimate import MAX_MC_SAMPLES
from powerpoly.polytope import MAX_POLYTOPE_ROWS

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexCommand:
    def test_average_weight(self, capsys):
        code, out, err = run(
            capsys, "index", "--kind", "avg-weight", "--game", "[3;2,1,1]"
        )
        assert (code, out, err) == (0, "11/18 7/36 7/36\n", "")

    def test_shapley_shubik(self, capsys):
        code, out, _ = run(
            capsys, "index", "--kind", "ssi", "--game", "[2;1,1,1]"
        )
        assert (code, out) == (0, "1/3 1/3 1/3\n")

    def test_average_representation_prints_quota(self, capsys):
        code, out, _ = run(
            capsys, "index", "--kind", "avg-rep", "--game", "[3;2,1,1]"
        )
        assert code == 0
        assert out == "7/12 5/24 5/24\navg quota: 2/3\n"

    def test_dummy_revealing(self, capsys):
        code, out, _ = run(
            capsys,
            "index", "--kind", "avg-rep", "--dummy-revealing",
            "--game", "[1;1,0]",
        )
        assert code == 0
        assert out.splitlines()[0] == "1 0"

    def test_axioms_block(self, capsys):
        code, out, _ = run(
            capsys,
            "index", "--kind", "avg-weight", "--axioms",
            "--game", "[1;1,0]",
        )
        assert code == 0
        assert out.splitlines() == [
            "3/4 1/4",
            "symmetric: yes",
            "positive: yes",
            "efficient: yes",
            "dummy property: no",
            "representation compatible: yes",
        ]

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys,
            "index", "--kind", "avg-weight", "--json",
            "--game", "[3;2,1,1]",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == ["11/18", "7/36", "7/36"]
        assert doc["decimals"] == ["0.611111", "0.194444", "0.194444"]

    def test_axioms_json_document(self, capsys):
        # the axiom keys keep the order of AxiomReport's fields
        code, out, err = run(
            capsys,
            "index", "--kind", "avg-rep", "--axioms", "--json",
            "--game", "[3;2,1,1]",
        )
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "game": "[3; 2, 1, 1]",\n  "kind": "avg-rep",\n'
            '  "values": [\n    "7/12",\n    "5/24",\n    "5/24"\n  ],\n'
            '  "decimals": [\n    "0.583333",\n    "0.208333",\n'
            '    "0.208333"\n  ],\n  "avg_quota": "2/3",\n  "axioms": {\n'
            '    "symmetric": true,\n    "positive": true,\n'
            '    "efficient": true,\n    "dummy_property": true,\n'
            '    "representation_compatible": true\n  }\n}\n'
        )

    def test_identical_invocations_are_byte_identical(self, capsys):
        argv = ("index", "--kind", "avg-rep", "--json", "--game", "[3;2,1,1]")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_back_to_back_calls_share_no_options(self, capsys, monkeypatch):
        # main() reuses one parser; no flag of a call may reach the next
        monkeypatch.delenv(PRECISION_ENV, raising=False)
        game = ("--game", "[3;2,1,1]")
        calls = [
            ("index", "--kind", "avg-weight", "--json", "--precision", "2", *game),
            ("index", "--kind", "avg-weight", *game),
            ("index", "--kind", "avg-rep", "--json", *game),
            ("index", "--kind", "ssi", "--game", "[3;2,1"),
            ("polytope", "--kind", "weight", "--volume", *game),
            ("polytope", "--kind", "rep", *game),
            ("intreps", "--total", "12", "--precision", "3", *game),
            ("intreps", "--total", "12", *game),
            ("table", "--max-voters", "2", "--json"),
            ("table", "--max-voters", "2"),
        ]
        forward = [run(capsys, *argv) for argv in calls]
        backward = [run(capsys, *argv) for argv in reversed(calls)][::-1]
        assert forward == backward
        assert [code for code, _, _ in forward] == [0, 0, 0, 2, 0, 0, 0, 0, 0, 0]
        assert json.loads(forward[0][1])["decimals"] == ["0.61", "0.19", "0.19"]
        assert forward[1][1] == "11/18 7/36 7/36\n"
        assert json.loads(forward[2][1])["decimals"][0] == "0.583333"
        assert forward[3][2].startswith("error:")
        assert forward[5][1].startswith("dim: 3\n")
        assert forward[6][1].splitlines()[2] == "decimals: 0.588 0.206 0.206"
        assert forward[7][1].splitlines()[2] == "decimals: 0.588235 0.205882 0.205882"
        assert not forward[9][1].startswith("{")
        for argv in calls:
            assert vars(_parser().parse_args(argv)) == vars(
                build_parser().parse_args(argv)
            )

    def test_parse_failure_exits_2(self, capsys):
        code, out, err = run(
            capsys, "index", "--kind", "ssi", "--game", "[3;2,1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_soft_scale_note(self, capsys):
        # 8 voters, the exact cap, run with no note on stderr
        code, out, err = run(
            capsys, "index", "--kind", "avg-weight", "--game", "[8;1,1,1,1,1,1,1,1]"
        )
        assert (code, out) == (0, "1/8 1/8 1/8 1/8 1/8 1/8 1/8 1/8\n")
        assert err == ""

    def test_no_scale_note_without_the_exact_pipeline(self, capsys):
        code, _, err = run(
            capsys, "index", "--kind", "ssi", "--game", "[8;1,1,1,1,1,1,1,1]"
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "kind, spec, want",
        [
            ("avg-rep", "[3;1,1,1,1,1,1,1,0,0]", 0),
            ("avg-weight", "[4;1,1,1,1,1,1,1,1,0]", 0),
            ("avg-weight", "[4;1,1,1,1,1,1,1,1,1]", 3),
        ],
    )
    def test_dummy_revealing_scale_counts_the_reduced_game(
        self, capsys, kind, spec, want
    ):
        # 9 voters: the exact pipeline runs on the reduced game unless no
        # voter is a dummy
        code, out, err = run(
            capsys, "index", "--kind", kind, "--dummy-revealing", "--game", spec
        )
        assert code == want
        if want:
            assert out == ""
            assert "at most 8 voters" in err
        else:
            assert err == ""

    def test_scale_failure_exits_3_naming_fallback(self, capsys):
        code, _, err = run(
            capsys,
            "index", "--kind", "avg-rep", "--game", "[4;1,1,1,1,1,1,1,1,1]",
        )
        assert code == 3
        assert "estimate_centroid_mc" in err

    def test_scale_failure_names_the_sample_limit(self, capsys):
        # the estimator may land nothing at this scale, even at its cap
        code, out, err = run(
            capsys,
            "polytope", "--kind", "rep", "--vertices",
            "--game", "[20;9,8,7,6,5,4,3,2,1]",
        )
        assert (code, out) == (3, "")
        assert f"up to {MAX_MC_SAMPLES} samples and may still land none" in err

    def test_past_both_caps_names_the_rows(self, capsys):
        # 10 voters, and the weight polytope has more rows than its builder
        # builds: the builder's refusal is the one reported
        code, out, err = run(
            capsys,
            "index", "--kind", "avg-weight", "--game", "[5;1,1,1,1,1,1,1,1,1,1]",
        )
        assert (code, out) == (3, "")
        assert "52930 constraint rows" in err


class TestPolytopeCommand:
    def test_weight_volume(self, capsys):
        code, out, _ = run(
            capsys,
            "polytope", "--kind", "weight", "--volume", "--game", "[3;2,1,1]",
        )
        assert (code, out) == (0, "1/6\n")

    def test_rep_volume(self, capsys):
        code, out, _ = run(
            capsys,
            "polytope", "--kind", "rep", "--volume", "--game", "[3;2,1,1]",
        )
        assert (code, out) == (0, "1/72\n")

    def test_segment_vertices(self, capsys):
        code, out, _ = run(
            capsys,
            "polytope", "--kind", "weight", "--vertices", "--game", "[1;1,1]",
        )
        assert (code, out) == (0, "(0) (1)\n")

    def test_moments(self, capsys):
        code, out, _ = run(
            capsys,
            "polytope", "--kind", "weight", "--moments", "--game", "[3;2,1,1]",
        )
        assert (code, out) == (0, "11/108 7/216\n")

    def test_default_summary(self, capsys):
        code, out, _ = run(
            capsys, "polytope", "--kind", "weight", "--game", "[3;2,1,1]"
        )
        assert code == 0
        assert out.splitlines() == [
            "dim: 2",
            "vertices: 4",
            "volume: 1/6",
            "centroid: 11/18 7/36",
        ]

    def test_soft_scale_warning_still_succeeds(self, capsys):
        code, out, err = run(
            capsys,
            "polytope", "--kind", "weight", "--volume",
            "--game", "[8;1,1,1,1,1,1,1,1]",
        )
        assert (code, out) == (0, "1/5040\n")
        assert err == ""

    def test_mc_requires_seed(self, capsys):
        code, _, err = run(
            capsys,
            "polytope", "--kind", "weight", "--estimate-centroid-mc",
            "--game", "[3;2,1,1]",
        )
        assert code == 2
        assert "--seed" in err

    def test_mc_output_and_determinism(self, capsys):
        argv = (
            "polytope", "--kind", "weight", "--estimate-centroid-mc",
            "--samples", "50000", "--seed", "11", "--game", "[3;2,1,1]",
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("mc centroid: 0.61")
        assert lines[1].startswith("mc stderr: 0.00")
        assert run(capsys, *argv) == (code, out, "")

    def test_mc_beyond_exact_scale_is_allowed(self, capsys):
        code, out, _ = run(
            capsys,
            "polytope", "--kind", "rep", "--estimate-centroid-mc",
            "--samples", "300000", "--seed", "2",
            "--game", "[9;1,1,1,1,1,1,1,1,1]",
        )
        assert code == 0
        assert out.startswith("mc centroid: ")

    def test_oversized_mc_request_exits_3_before_building(
        self, capsys, monkeypatch
    ):
        # 16 voters: 2552 x 2597 (minimal winning, maximal losing) pairs
        def coalition_str(mask):
            raise AssertionError("a coalition row was written")

        monkeypatch.setattr(polytope, "coalition_str", coalition_str)
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "polytope", "--kind", "weight", "--estimate-centroid-mc",
            "--samples", "1000", "--seed", "1",
            "--game", "[70;1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert "6627560 constraint rows" in err
        assert f"supported {MAX_POLYTOPE_ROWS}" in err

    def test_samples_past_the_cap_exit_3_before_drawing(
        self, capsys, monkeypatch
    ):
        def set_up(*args):
            raise AssertionError("Monte Carlo set-up started")

        monkeypatch.setattr(estimate, "_proposal", set_up)
        code, out, err = run(
            capsys,
            "polytope", "--kind", "weight", "--estimate-centroid-mc",
            "--samples", str(MAX_MC_SAMPLES + 1), "--seed", "1",
            "--game", "[3;2,1,1]",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:")
        assert f"supported {MAX_MC_SAMPLES}" in err

    def test_refused_estimate_after_vertices_prints_nothing(self, capsys):
        code, out, err = run(
            capsys,
            "polytope", "--kind", "weight", "--vertices",
            "--estimate-centroid-mc", "--samples", str(MAX_MC_SAMPLES + 1),
            "--seed", "1", "--game", "[3;2,1,1]",
        )
        assert (code, out) == (3, "")
        assert f"supported {MAX_MC_SAMPLES}" in err

    def test_inconclusive_estimate_after_vertices_prints_nothing(self, capsys):
        code, out, err = run(
            capsys,
            "polytope", "--kind", "weight", "--vertices", "--volume",
            "--estimate-centroid-mc", "--samples", "1", "--seed", "1",
            "--game", "[3;2,1,1]",
        )
        assert (code, out) == (1, "")
        assert "samples landed inside" in err

    def test_single_sample_is_inconclusive(self, capsys):
        # one accepted point admits no error bar, whatever the seed
        code, _, err = run(
            capsys,
            "polytope", "--kind", "rep", "--estimate-centroid-mc",
            "--samples", "1", "--seed", "3", "--game", "[5;1,1,1,1,1,1]",
        )
        assert code == 1
        assert "samples landed inside" in err
        assert 'see README "Scale"' in err

    def test_exact_request_beyond_cap_exits_3(self, capsys):
        # 9 voters pass all but the exact cap; 17 fail the cap on any game
        for spec in ("[4;1,1,1,1,1,1,1,1,1]", "[9;" + ",".join("1" * 17) + "]"):
            code, _, err = run(
                capsys, "polytope", "--kind", "rep", "--volume", "--game", spec
            )
            assert code == 3
            assert err.startswith("error:")

    def test_json_past_the_voter_cap_writes_no_row(self, capsys, monkeypatch):
        # polytope_to_json enumerates the vertices, which refuse 9 voters,
        # before it reads the constraints
        def coalition_str(mask):
            raise AssertionError("a coalition row was written")

        monkeypatch.setattr(polytope, "coalition_str", coalition_str)
        spec = "[4;1,1,1,1,1,1,1,1,1]"
        poly = polytope.build_weight_polytope(parse_game(spec))
        with pytest.raises(ScaleExceededError, match="at most 8 voters"):
            polytope.polytope_to_json(poly)
        assert poly._constraints is None and "rows" not in poly._cache
        code, out, err = run(
            capsys, "polytope", "--kind", "weight", "--json", "--game", spec
        )
        assert (code, out) == (3, "")
        assert "at most 8 voters" in err

    def test_json_with_mc_fields(self, capsys):
        code, out, _ = run(
            capsys,
            "polytope", "--kind", "weight", "--json",
            "--estimate-centroid-mc", "--samples", "5000", "--seed", "4",
            "--game", "[3;2,1,1]",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["volume"] == "1/6"
        assert len(doc["mc_centroid"]) == 2
        assert doc["seed"] == 4


class TestIntrepsCommand:
    def test_feasible_weight_count(self, capsys):
        code, out, _ = run(
            capsys, "intreps", "--total", "100", "--game", "[2;1,1,1]"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "count: 1176"
        assert lines[1] == "average: 1/3 1/3 1/3"

    def test_representation_count(self, capsys):
        code, out, _ = run(
            capsys,
            "intreps", "--total", "100", "--with-quota", "--game", "[2;1,1,1]",
        )
        assert code == 0
        assert out.splitlines()[0] == "count: 13872"

    def test_convergence_table(self, capsys):
        code, out, _ = run(
            capsys,
            "intreps", "--convergence", "100,1000", "--game", "[3;2,1,1]",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "total,count,avg_1,avg_2,avg_3,l1_to_limit"
        assert lines[1].startswith("100,1601,0.608832,0.195584,0.195584,")
        assert lines[2].startswith("1000,166001,0.610888,0.194556,0.194556,")
        assert lines[3] == "# limit: 11/18 7/36 7/36"
        # a total with no feasible vector prints its count and empty cells
        code, out, _ = run(
            capsys,
            "intreps", "--convergence", "5,21", "--game", "[10;6,5,4,3,2,1]",
        )
        assert code == 0
        assert out.splitlines()[1] == "5,0,,,,,,,"

    # (game, --with-quota) -> count and average at --total 10
    TOTAL_TEN = {
        ("[2;1,1,1]", False): (6, ["1/3", "1/3", "1/3"]),
        ("[2;1,1,1]", True): (12, ["1/3", "1/3", "1/3"]),
        ("[3;2,1,1]", False): (11, ["32/55", "23/110", "23/110"]),
        ("[3;2,1,1]", True): (14, ["4/7", "3/14", "3/14"]),
    }

    @pytest.mark.parametrize("game,with_quota", list(TOTAL_TEN))
    def test_total_json_matches_the_text(self, capsys, game, with_quota):
        argv = ["intreps", "--total", "10", "--game", game, "--precision", "3"]
        argv += ["--with-quota"] * with_quota
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        count, average = self.TOTAL_TEN[game, with_quota]
        assert doc == {
            "game": parse_game(game).to_spec(),
            "total": 10,
            "with_quota": with_quota,
            "count": count,
            "average": average,
            "decimals": [decimal_str(Fraction(v), 3) for v in average],
        }
        assert run(capsys, *argv) == (
            0,
            f"count: {count}\n"
            f"average: {' '.join(average)}\n"
            f"decimals: {' '.join(doc['decimals'])}\n",
            "",
        )

    @pytest.mark.parametrize("game,with_quota", list(TOTAL_TEN))
    def test_convergence_json_matches_the_text(self, capsys, game, with_quota):
        argv = ["intreps", "--convergence", "5,10", "--game", game]
        argv += ["--precision", "3"] + ["--with-quota"] * with_quota
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert list(doc) == ["game", "with_quota", "rows", "limit"]
        assert (doc["game"], doc["with_quota"]) == (
            parse_game(game).to_spec(), with_quota
        )
        assert doc["limit"]["kind"] == ("avg-rep" if with_quota else "avg-weight")
        assert [row["total"] for row in doc["rows"]] == [5, 10]
        last = doc["rows"][-1]
        assert (last["count"], last["average"]) == self.TOTAL_TEN[game, with_quota]
        _, text, _ = run(capsys, *argv)
        _, *lines, limit = text.splitlines()
        assert len(lines) == len(doc["rows"])
        for row, line in zip(doc["rows"], lines):
            cells = line.split(",")
            assert cells[:2] == [str(row["total"]), str(row["count"])]
            assert cells[2:-1] == row["decimals"]
            assert cells[-1] == decimal_str(Fraction(row["l1_to_limit"]), 3)
        assert limit == "# limit: " + " ".join(doc["limit"]["values"])

    def test_zero_places(self, capsys):
        code, out, _ = run(
            capsys,
            "intreps", "--total", "10", "--game", "[3;2,1,1]",
            "--precision", "0",
        )
        assert code == 0
        assert out.splitlines()[-1] == "decimals: 1 0 0"

    def test_requires_total_or_convergence(self, capsys):
        code, _, err = run(capsys, "intreps", "--game", "[2;1,1,1]")
        assert code == 2
        assert "total" in err

    def test_bad_totals_list(self, capsys):
        code, _, _ = run(
            capsys,
            "intreps", "--convergence", "100,abc", "--game", "[2;1,1,1]",
        )
        assert code == 2

    def test_six_voters_exit_3(self, capsys):
        # six voters at total 100 are past the grid budget
        code, _, _ = run(
            capsys,
            "intreps", "--total", "100", "--game", "[4;1,1,1,1,1,1]",
        )
        assert code == 3

    def test_three_voters_past_int64_exit_3(self, capsys):
        code, out, err = run(
            capsys, "intreps", "--total", "65535", "--game", "[2;1,1,1]"
        )
        assert (code, out) == (3, "")
        assert err == "error: grid for total 65535 overflows int64\n"

    @pytest.mark.parametrize("quota", [[], ["--with-quota"]])
    def test_convergence_refuses_before_the_exact_limit(
        self, capsys, monkeypatch, quota
    ):
        def refuse(game):
            raise AssertionError("exact limit computed")

        monkeypatch.setattr(integer_reps, "average_weight_index", refuse)
        monkeypatch.setattr(integer_reps, "average_representation_index", refuse)
        code, out, err = run(
            capsys,
            "intreps", "--convergence", "10,20,200", *quota,
            "--game", "[18;8,7,6,5,4,3,2,1]",
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: grid for total 200 has 98619368491 heads of 48 coalition"
            " weights, more than the supported 100000000\n"
        )

    def test_empty_totals_list(self, capsys):
        code, out, err = run(
            capsys, "intreps", "--convergence", ",", "--game", "[2;1,1,1]"
        )
        assert (code, out, err) == (2, "", "error: empty totals list\n")


class TestTableCommand:
    def test_two_voter_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--max-voters", "2")
        assert code == 0
        specs = [line.split(" | ")[0] for line in out.splitlines()]
        assert specs == ["[1;1]", "[1;1,0]", "[1;1,1]", "[2;1,1]"]

    def test_catalogue_rows_carry_expected_values(self, capsys):
        code, out, _ = run(capsys, "table", "--max-voters", "4")
        assert code == 0
        by_spec = {
            line.split(" | ")[0]: line for line in out.splitlines()
        }
        assert (
            "avg-weight 83/240 83/240 37/240 37/240"
            in by_spec["[4;2,2,1,1]"]
        )
        assert (
            "avg-rep 77/150 41/150 8/75 8/75"
            in by_spec["[5;3,2,1,1]"]
        )

    def test_json_round_trip_is_lossless(self, capsys):
        code, out, _ = run(capsys, "table", "--max-voters", "4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) == out.rstrip("\n")
        assert len(doc["rows"]) == 37

    def test_out_of_range_exits_3(self, capsys):
        for bad in ("0", "5"):
            code, _, err = run(capsys, "table", "--max-voters", bad)
            assert code == 3
            assert "1 to 4" in err


class TestPrecision:
    def test_environment_variable(self, capsys, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV, "3")
        _, out, _ = run(
            capsys, "intreps", "--total", "100", "--game", "[3;2,1,1]"
        )
        assert out.splitlines()[2] == "decimals: 0.609 0.196 0.196"

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV, "3")
        _, out, _ = run(
            capsys,
            "intreps", "--total", "100", "--precision", "2",
            "--game", "[3;2,1,1]",
        )
        assert out.splitlines()[2] == "decimals: 0.61 0.20 0.20"

    def test_invalid_environment_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(PRECISION_ENV, "wide")
        code, _, err = run(
            capsys, "intreps", "--total", "10", "--game", "[2;1,1,1]"
        )
        assert code == 2
        assert PRECISION_ENV in err

    def test_negative_precision_rejected(self, capsys):
        code, _, _ = run(
            capsys,
            "index", "--kind", "ssi", "--precision", "-1", "--json",
            "--game", "[2;1,1,1]",
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, precision_env",
    [
        (["polytope", "--kind", "weight", "--estimate-centroid-mc",
          "--seed", "1", "--samples", "0"], None),
        (["polytope", "--kind", "rep", "--estimate-centroid-mc",
          "--seed", "1", "--samples", "-5"], None),
        (["polytope", "--kind", "weight", "--estimate-centroid-mc",
          "--seed", "-1"], None),
        (["intreps", "--total", "0"], None),
        (["intreps", "--total", "-4", "--with-quota"], None),
        (["intreps", "--convergence", "5,3"], None),
        (["intreps", "--convergence", "0,3"], None),
        # plain `index` prints no decimals, but its precision is still checked
        (["index", "--kind", "ssi", "--precision", "-1"], None),
        (["index", "--kind", "avg-weight"], "wide"),
        # past the bound, decimals would exceed str()'s 4,300-digit limit
        (["index", "--kind", "ssi", "--json", "--precision", "4301"], None),
        (["intreps", "--total", "10", "--precision", "5000"], None),
        (["index", "--kind", "ssi", "--json"], "100000"),
    ],
    ids=[
        "zero-samples", "negative-samples", "negative-seed", "zero-total",
        "negative-total", "descending-totals", "zero-in-totals",
        "index-negative-precision", "index-precision-env",
        "index-huge-precision", "intreps-huge-precision",
        "index-huge-precision-env",
    ],
)
def test_malformed_numeric_option_exits_2(capsys, monkeypatch, argv, precision_env):
    if precision_env is not None:
        monkeypatch.setenv(PRECISION_ENV, precision_env)
    code, out, err = run(capsys, *argv, "--game", "[3;2,1,1]")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


# Runs main() on each argv of a JSON list in a fresh interpreter (pytest
# itself has numpy loaded) and prints whether numpy got imported.
NUMPY_PROBE = """
import contextlib, io, json, sys
import powerpoly, powerpoly.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert powerpoly.cli.main(argv) == 0, argv
print("numpy" in sys.modules)
"""


def numpy_loaded_after(*calls):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(calls)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout == "True\n"


def exact_calls():
    game = ["--game", "[3;2,1,1]"]
    calls = [
        ["index", "--kind", kind, *flags, *game]
        for kind in ("ssi", "avg-weight", "avg-rep")
        for flags in ([], ["--json"], ["--axioms"], ["--dummy-revealing"])
    ]
    calls += [["table"], ["table", "--json"]]
    calls += [
        ["polytope", "--kind", kind, *flags, *game]
        for kind in ("weight", "rep")
        for flags in ([], ["--vertices", "--volume", "--moments"], ["--json"])
    ]
    return calls


def test_exact_calls_run_without_numpy():
    assert not numpy_loaded_after(*exact_calls())


# Like NUMPY_PROBE, but prints the modules that importing powerpoly and
# running the calls added to those loaded before (site may preload some).
MODULES_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import powerpoly, powerpoly.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert powerpoly.cli.main(argv) == 0, argv
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_exact_calls_load_no_unused_modules():
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, json.dumps(exact_calls())],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "powerpoly.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "numpy"})


def readme_examples():
    """(argv, shown stdout) for every `$ powerpoly ...` example in README."""
    lines = README.read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ powerpoly "):
            shown = []
            for out in lines[i + 1 :]:
                if not out or out.startswith(("$ ", "```")):
                    break
                shown.append(out + "\n")
            examples.append((shlex.split(line)[2:], "".join(shown)))
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize(
    "argv,shown",
    README_EXAMPLES,
    ids=[" ".join(argv) for argv, _ in README_EXAMPLES],
)
def test_readme_examples(capsys, argv, shown):
    assert run(capsys, *argv) == (0, shown, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["intreps", "--total", "10"],
        ["polytope", "--kind", "weight", "--estimate-centroid-mc",
         "--samples", "1000", "--seed", "1"],
    ],
    ids=["grid-scan", "mc-estimate"],
)
def test_numeric_calls_load_numpy(argv):
    # the converse of the above, so that guard is known to see numpy
    assert numpy_loaded_after([*argv, "--game", "[3;2,1,1]"])


def test_installed_entry_point():
    """The ``python -m powerpoly.cli`` module run."""
    proc = subprocess.run(
        [sys.executable, "-m", "powerpoly.cli", "index",
         "--kind", "avg-weight", "--game", "[3;2,1,1]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "11/18 7/36 7/36\n"


def console_script_command():
    """The installed ``powerpoly`` script, else its declared entry point.

    An uninstalled checkout has no script on ``PATH``, so the
    ``[project.scripts]`` target is run in a child interpreter the way an
    installer-generated wrapper runs it.
    """
    installed = shutil.which("powerpoly")
    if installed:
        return [installed]
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f).get("project", {}).get("scripts", {})
    assert "powerpoly" in scripts, (
        "pyproject.toml declares no [project.scripts] powerpoly entry point"
    )
    module, _, function = scripts["powerpoly"].partition(":")
    wrapper = (
        f"import sys; from {module} import {function}; "
        f"sys.argv[0] = 'powerpoly'; sys.exit({function}())"
    )
    return [sys.executable, "-c", wrapper]


def test_console_script():
    """The ``[project.scripts]`` entry point, or the powerpoly on ``PATH``."""
    proc = subprocess.run(
        [*console_script_command(), "table", "--max-voters", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("[1;1] | avg-weight 1 | avg-rep 1")
