"""The public surface: ``rayclass.__all__``, the names README and the demos
import from it, the module-level names the benchmark harness in
``perfbench/`` reads from the submodules, and the one module that reads
mpmath's raw numbers."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rayclass

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = sorted([
    "PrecisionContext", "ModularPoint", "FractionPair",
    "eta", "eisenstein", "delta", "j_invariant", "siegel", "wp", "wp_prime",
    "u_value", "v_value", "x_value", "y_value", "normalized",
    "make_field", "ray_class_degree", "ideal_factorization", "check_hypothesis",
    "w_group", "conjugate_values", "minpoly", "hilbert_class_poly",
    "CheckReport", "check_curve_point", "check_surface_point", "check_lemma51",
    "check_lemma52", "check_T_bound", "check_generation", "check_elliptic_points",
    "RayclassError", "InputError", "NotFundamental", "NotImaginary",
    "UnsupportedDiscriminant", "DegenerateIndex", "NonInvertible",
    "NumericalError", "ImTooSmall", "OnLattice", "NonFinite",
    "DuplicateValues",
])

# module -> names that perfbench/ reads there
HARNESS_NAMES = {
    "rayclass.classfield": ("is_fundamental", "make_field", "check_hypothesis",
                            "ray_class_degree"),
    "rayclass.verify": ("check_surface_point", "siegel"),
    "rayclass.qseries": ("ModularPoint", "j_invariant", "eta", "delta"),
    "rayclass.reciprocity": ("labels", "conjugate_values"),
    "rayclass.cli": ("main",),
    "rayclass": ("PrecisionContext",),
}

SUBMODULES = ("classfield", "errors", "numerics", "qseries", "reciprocity", "verify")


def test_all_is_the_pinned_list():
    assert sorted(rayclass.__all__) == PUBLIC
    assert len(rayclass.__all__) == len(PUBLIC) <= 44


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from rayclass import *", ns)
    assert sorted(k for k in ns if k != "__builtins__") == PUBLIC


def _names_from_rayclass(source: str) -> set:
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "rayclass"
            for a in node.names}


def test_readme_and_demo_imports_are_public():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert blocks and demos
    for source in blocks + [p.read_text() for p in demos]:
        used = _names_from_rayclass(source)
        assert used and used <= set(rayclass.__all__), used - set(rayclass.__all__)


@pytest.mark.parametrize("module", sorted(HARNESS_NAMES))
def test_harness_names_resolve(module):
    mod = importlib.import_module(module)
    for name in HARNESS_NAMES[module]:
        assert callable(getattr(mod, name)), name


def test_harness_point_and_siegel():
    from rayclass import qseries, verify

    assert callable(qseries.ModularPoint.from_complex)
    assert callable(qseries.ModularPoint.terms)
    assert verify.siegel is qseries.siegel


def test_submodules_are_attributes_after_import():
    code = ("import rayclass; print(' '.join(m for m in %r if hasattr(rayclass, m)))"
            % (SUBMODULES,))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    assert tuple(proc.stdout.split()) == SUBMODULES


RAW = ("_mpf_", "_mpc_")


def _reads_raw_mpmath(node) -> bool:
    """An import from ``mpmath.libmp``, or a read of an mpf's or mpc's raw
    tuple, as an attribute or by name (``getattr``)."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("mpmath.libmp")
    if isinstance(node, ast.Import):
        return any(a.name.startswith("mpmath.libmp") for a in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr in RAW + ("libmp",)
    return isinstance(node, ast.Constant) and node.value in RAW


def test_only_fixed_reads_raw_mpmath_numbers():
    """``_fixed`` is the only module of the package that imports from
    ``mpmath.libmp`` or reads ``_mpf_`` or ``_mpc_``."""
    readers = {path.name for path in (ROOT / "src" / "rayclass").glob("*.py")
               if any(map(_reads_raw_mpmath, ast.walk(ast.parse(path.read_text()))))}
    assert readers == {"_fixed.py"}
