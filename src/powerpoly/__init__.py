"""Exact power indices for weighted majority games.

The package computes two representation-compatible indices, the average
weight index and the average representation index, as exact centroids of
rational polytopes, alongside the classic Shapley-Shubik index. All exact
paths run on arbitrary-precision rationals.
"""

from .canonical_games import CANONICAL_GAMES, canonical_games
from .estimate import EstimateInconclusiveError, estimate_centroid_mc
from .exact_math import decimal_str, parse_rational
from .game_core import (
    Coalition,
    GameFormatError,
    MAX_VOTERS,
    NormalizedRepresentation,
    ScaleExceededError,
    WeightedGame,
    coalition,
    coalition_str,
    desirability_classes,
    is_feasible_weights,
    is_representation,
    l1_distance,
    members,
    parse_game,
)
from .indices import (
    AxiomReport,
    INDICES,
    IndexVector,
    KIND_AVG_REP,
    KIND_AVG_WEIGHT,
    KIND_SSI,
    average_representation_index,
    average_weight_index,
    check_axioms,
    dummy_revealing,
    index_to_json,
    is_representation_compatible_at,
    shapley_shubik,
)
from .integer_reps import (
    ConvergenceRow,
    ConvergenceTable,
    GridSummary,
    convergence_experiment,
    convergence_to_json,
    enumerate_integer_feasible_weights,
    enumerate_integer_representations,
    grid_summary_to_json,
)
from .polytope import (
    Constraint,
    DegenerateGeometryError,
    EXACT_MAX_VOTERS,
    HPolytope,
    Simplex,
    Vertex,
    build_representation_polytope,
    build_weight_polytope,
    centroid,
    check_exact_scale,
    enumerate_vertices,
    moments,
    polytope_to_json,
    triangulate,
    volume,
)

__version__ = "0.1.0"
