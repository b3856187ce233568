"""Every module of the package defines each name it exports, and each
exported name has a caller outside the tests."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import mchjm

MODULES = sorted(info.name for info in pkgutil.iter_modules(mchjm.__path__))
ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "scripts", "perfbench")

# Exported names that no command, script or benchmark reaches, kept because a
# test uses them as the reference for a result of the paper.
KEEP = {
    # test_acceptance.py::test_a9_benchmark_coordinate_chart (A9)
    "fdr.choose_benchmark_coefficients",
    "fdr.state_from_observables",
    # test_fdr.py::test_generic_builder_matches_closed_form and
    # test_tangency_constant_direction: the explicit constructions
    "fdr.build_constant_vol_fdr",
    "fdr.build_cdv_example_fdr",
    # test_acceptance.py::test_a6_residual_affinity_and_inner_recovery (A6 oracle)
    "calibration.residual",
    # test_acceptance.py::test_a1_annihilator_exactness (A1)
    "qe.annihilator",
    # test_qe.py::test_evaluate_trig_term: the trig terms of the QE class
    "qe.trig_exp",
    # test_dynamics.py::test_ito_drift_hull_white_closed_form: the Ito
    # reference of the Stratonovich drift tests
    "dynamics.ito_drift",
}


def _identifiers(node: ast.AST):
    """Identifiers that ``node`` uses: names read, attributes, imports and
    strings (as in ``getattr``-style wrapping).  Definitions and assignment
    targets are not uses."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _uses() -> list[tuple[str, str]]:
    """(identifier, top-level definition it appears in, or "") over the
    caller directories; ``__all__`` lists are skipped."""
    uses = []
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
                ):
                    continue
                owner = getattr(stmt, "name", "")
                uses.extend((ident, owner) for ident in _identifiers(stmt))
    return uses


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"mchjm.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"mchjm.{name}.__all__ names undefined {missing}"


def test_all_names_have_a_caller():
    # A name used only inside exported definitions that are themselves
    # unused is unused too: iterate to the fixed point.
    uses = _uses()
    exported = [(f"{name}.{n}", n) for name in MODULES
                for n in importlib.import_module(f"mchjm.{name}").__all__]
    dead: set[str] = set()
    while True:
        counts = Counter(i for i, owner in uses if owner != i and owner not in dead)
        now = {n for qual, n in exported if counts[n] == 0 and qual not in KEEP}
        if now == dead:
            break
        dead = now
    unused = [qual for qual, n in exported if n in dead]
    assert not unused, f"exported names only tests reach: {unused}"
