"""Every public name resolves, and the package re-exports only public names."""

import ast
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import powerpoly

MODULES = [
    importlib.import_module(f"powerpoly.{info.name}")
    for info in pkgutil.iter_modules(powerpoly.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(powerpoly.__file__).read_text())
    imports = [
        node for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"powerpoly.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(powerpoly, alias.name) is getattr(module, alias.name)


def value_objects():
    """One instance of each public value type."""
    one = (Fraction(1),)
    summary = powerpoly.GridSummary(10, 1, one, False)
    row = powerpoly.ConvergenceRow(summary, Fraction(0))
    index = powerpoly.IndexVector(one, "ssi")
    vertex = powerpoly.Vertex(one, frozenset({0}))
    return [
        powerpoly.NormalizedRepresentation(Fraction(1, 2), one),
        index,
        powerpoly.AxiomReport(True, True, True, True, True),
        summary,
        row,
        powerpoly.ConvergenceTable((row,), index),
        powerpoly.Constraint(one, Fraction(1), "w1 <= 1"),
        vertex,
        powerpoly.Simplex((vertex,)),
    ]


@pytest.mark.parametrize("obj", value_objects(), ids=lambda o: type(o).__name__)
def test_value_types_are_immutable(obj):
    for name in (*obj._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
