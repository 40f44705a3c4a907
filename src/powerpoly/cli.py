"""Command line front end.

Subcommands: `index` (power indices), `polytope` (geometry inspection),
`intreps` (integer grids), `table` (the built-in n <= 4 catalogue).
Exit codes: 0 on success, 2 for malformed input, 3 for requests beyond
the supported scale: the library refuses those with ScaleExceededError
before starting the work (the builders past their row cap, the exact
stages past their voter cap), and this module maps that to exit 3 with
the library's message. Its one scale check of its own is `table
--max-voters`, which must lie in 1 to 4, the catalogue's range.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .canonical_games import canonical_games
from .estimate import EstimateInconclusiveError, estimate_centroid_mc
from .exact_math import MAX_PRECISION, decimal_str
from .game_core import GameFormatError, ScaleExceededError, parse_game
from .indices import (
    INDICES,
    average_representation_index,
    average_weight_index,
    check_axioms,
    dummy_revealing,
    index_to_json,
)
from .integer_reps import (
    convergence_experiment,
    convergence_to_json,
    enumerate_integer_feasible_weights,
    enumerate_integer_representations,
    grid_summary_to_json,
)
from .polytope import (
    _vertex_table,
    build_representation_polytope,
    build_weight_polytope,
    centroid,
    enumerate_vertices,
    moments,
    polytope_to_json,
    volume,
)

PRECISION_ENV = "POWERPOLY_PRECISION"


def _precision(args) -> int:
    """Output precision: --precision, else $POWERPOLY_PRECISION, else 6."""
    name, value = "precision", args.precision
    if value is None:
        raw = os.environ.get(PRECISION_ENV)
        if raw is None:
            return 6
        name = PRECISION_ENV
        try:
            value = int(raw)
        except ValueError:
            raise GameFormatError(f"{name} must be an integer") from None
    if value < 0:
        raise GameFormatError(f"{name} must be nonnegative")
    if value > MAX_PRECISION:
        raise GameFormatError(f"{name} must be at most {MAX_PRECISION}")
    return value


def _values_line(values) -> str:
    return " ".join(str(v) for v in values)


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _cmd_index(args) -> int:
    game = parse_game(args.game)
    if args.dummy_revealing:
        index = dummy_revealing(args.kind, game)
    else:
        index = INDICES[args.kind](game)
    axioms = check_axioms(game, index) if args.axioms else None
    if args.json:
        _emit_json(index_to_json(game, index, axioms, args.precision))
        return 0
    print(_values_line(index.values))
    if index.avg_quota is not None:
        print(f"avg quota: {index.avg_quota}")
    if axioms is not None:
        for name, holds in axioms._asdict().items():
            print(f"{name.replace('_', ' ')}: {'yes' if holds else 'no'}")
    return 0


def _cmd_polytope(args) -> int:
    game = parse_game(args.game)
    build = (
        build_weight_polytope if args.kind == "weight"
        else build_representation_polytope
    )
    if args.estimate_centroid_mc:
        if args.seed is None:
            raise GameFormatError("--estimate-centroid-mc requires --seed")
        if args.seed < 0:
            raise GameFormatError("--seed must be nonnegative")
        if args.samples < 1:
            raise GameFormatError("--samples must be positive")
    poly = build(game)  # refuses past MAX_POLYTOPE_ROWS, exact or not
    # all output is computed before any is written, the estimate last, so
    # a refused or inconclusive estimate leaves stdout empty
    lines = []
    if args.json:
        doc = polytope_to_json(poly)
    else:
        if args.vertices:
            verts = enumerate_vertices(poly)
            lines.append(" ".join(f"({', '.join(map(str, v.coords))})" for v in verts))
        if args.volume:
            lines.append(str(volume(poly)))
        if args.moments:
            lines.append(_values_line(moments(poly)))
    if args.estimate_centroid_mc:
        est, err = estimate_centroid_mc(poly, args.samples, args.seed)
        if args.json:
            doc.update(
                mc_centroid=list(est), mc_stderr=list(err),
                samples=args.samples, seed=args.seed,
            )
        else:
            places = args.precision
            lines.append("mc centroid: " + " ".join(f"{v:.{places}f}" for v in est))
            lines.append("mc stderr: " + " ".join(f"{v:.{places}f}" for v in err))
    if args.json:
        _emit_json(doc)
        return 0
    if not lines:
        lines.append(f"dim: {poly.dim}")
        lines.append(f"vertices: {len(_vertex_table(poly).rays)}")
        lines.append(f"volume: {volume(poly)}")
        lines.append(f"centroid: {_values_line(centroid(poly))}")
    print("\n".join(lines))
    return 0


def _cmd_intreps(args) -> int:
    game = parse_game(args.game)
    if args.total is not None and args.convergence is not None:
        raise GameFormatError("--total and --convergence exclude each other")
    if args.convergence:
        try:
            totals = [int(tok) for tok in args.convergence.split(",") if tok.strip()]
        except ValueError:
            raise GameFormatError(
                f"bad totals list: {args.convergence!r}"
            ) from None
        table = convergence_experiment(game, totals, with_quota=args.with_quota)
        if args.json:
            _emit_json(convergence_to_json(game, table, args.precision))
            return 0
        header = ["total", "count"]
        header += [f"avg_{i}" for i in range(1, game.n + 1)]
        header.append("l1_to_limit")
        print(",".join(header))
        for row in table.rows:
            cells = [str(row.summary.total), str(row.summary.count)]
            if row.summary.count:
                cells += [
                    decimal_str(v, args.precision) for v in row.summary.average
                ]
            else:
                cells += [""] * game.n
            cells.append(
                decimal_str(row.l1_to_limit, args.precision)
                if row.l1_to_limit is not None
                else ""
            )
            print(",".join(cells))
        print(f"# limit: {_values_line(table.limit.values)}")
        return 0
    if args.total is None:
        raise GameFormatError("either --total or --convergence is required")
    scan = (
        enumerate_integer_representations
        if args.with_quota
        else enumerate_integer_feasible_weights
    )
    summary = scan(game, args.total)
    if args.json:
        _emit_json(grid_summary_to_json(game, summary, args.precision))
        return 0
    print(f"count: {summary.count}")
    if summary.count:
        print(f"average: {_values_line(summary.average)}")
        print(
            "decimals: "
            + " ".join(decimal_str(v, args.precision) for v in summary.average)
        )
    return 0


def _table_doc(game, index, precision) -> dict:
    """index_to_json's document without the keys a table row already has."""
    doc = index_to_json(game, index, None, precision)
    del doc["game"], doc["kind"]
    return doc


def _cmd_table(args) -> int:
    if args.max_voters < 1 or args.max_voters > 4:
        raise ScaleExceededError("the built-in catalogue covers 1 to 4 voters")
    rows = []
    for spec in canonical_games(args.max_voters):
        game = parse_game(spec)
        aw = average_weight_index(game)
        ar = average_representation_index(game)
        rows.append((spec, game, aw, ar))
    if args.json:
        _emit_json(
            {
                "max_voters": args.max_voters,
                "rows": [
                    {
                        "game": spec,
                        "avg_weight": _table_doc(game, aw, args.precision),
                        "avg_rep": _table_doc(game, ar, args.precision),
                    }
                    for spec, game, aw, ar in rows
                ],
            }
        )
        return 0
    for spec, _game, aw, ar in rows:
        print(
            f"{spec} | avg-weight {_values_line(aw.values)}"
            f" | avg-rep {_values_line(ar.values)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerpoly",
        description="Exact power indices for weighted majority games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="compute a power index")
    p_index.add_argument("--game", required=True, help='game spec "[q; w1, ..., wn]"')
    p_index.add_argument(
        "--kind",
        required=True,
        choices=list(INDICES),
    )
    p_index.add_argument("--dummy-revealing", action="store_true")
    p_index.add_argument("--axioms", action="store_true")
    p_index.add_argument("--json", action="store_true")
    p_index.add_argument("--precision", type=int)
    p_index.set_defaults(func=_cmd_index)

    p_poly = sub.add_parser("polytope", help="inspect a game polytope")
    p_poly.add_argument("--game", required=True)
    p_poly.add_argument("--kind", required=True, choices=["weight", "rep"])
    p_poly.add_argument("--vertices", action="store_true")
    p_poly.add_argument("--volume", action="store_true")
    p_poly.add_argument("--moments", action="store_true")
    p_poly.add_argument("--estimate-centroid-mc", action="store_true")
    p_poly.add_argument("--samples", type=int, default=100_000)
    p_poly.add_argument("--seed", type=int)
    p_poly.add_argument("--json", action="store_true")
    p_poly.add_argument("--precision", type=int)
    p_poly.set_defaults(func=_cmd_polytope)

    p_int = sub.add_parser("intreps", help="scan integer weight grids")
    p_int.add_argument("--game", required=True)
    p_int.add_argument("--total", type=int)
    p_int.add_argument("--with-quota", action="store_true")
    p_int.add_argument(
        "--convergence", metavar="T1,T2,...", help="ascending totals"
    )
    p_int.add_argument("--json", action="store_true")
    p_int.add_argument("--precision", type=int)
    p_int.set_defaults(func=_cmd_intreps)

    p_table = sub.add_parser("table", help="print the built-in catalogue")
    p_table.add_argument("--max-voters", type=int, default=4)
    p_table.add_argument("--json", action="store_true")
    p_table.add_argument("--precision", type=int)
    p_table.set_defaults(func=_cmd_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on its first call.

    Parsing leaves an argparse parser unchanged (each call fills a fresh
    namespace), so repeated in-process calls can share one.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.precision = _precision(args)
        return args.func(args)
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScaleExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EstimateInconclusiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
