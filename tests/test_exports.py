"""The public names: every ``__all__`` entry exists, and the package re-exports only listed names."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import schurkit

MODULES = ("curves", "schur", "sphere", "minkowski")
RETIRED = ("SStarResult", "TimelikeCurve", "TangentAngle", "tangent_angle", "embed_timelike_2d",
           "reparametrize_projected_pair", "companion_project", "CellCubics", "pchip_cells", "pchip",
           "SampledFunction", "finite_diff", "_collapse_jump_rows", "apply_jump",
           "reconstruct_space_frenet", "cone_project", "closed_form_cross_norm", "lorentz_boost",
           "boost_curve", "total_turning", "check_convex_budget", "BudgetResult",
           "integrate_sampled", "_uniform_runs", "_simpson_uniform", "arc_length_budget_check",
           "ArcBudgetResult", "curvature_dominance_check", "DominanceReport", "worst_dominance",
           "_measured_jump_angles", "_timelike_census")


def _package_imports() -> dict[str, list[str]]:
    """Module -> the names ``schurkit/__init__.py`` imports from it."""
    tree = ast.parse(Path(schurkit.__file__).read_text(encoding="utf-8"))
    out: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"schurkit.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_are_listed():
    imports = _package_imports()
    assert set(MODULES) <= set(imports)
    for name in MODULES:
        listed = importlib.import_module(f"schurkit.{name}").__all__
        assert [n for n in imports[name] if n not in listed] == [], name


def test_retired_names_are_gone():
    for name in MODULES:
        module = importlib.import_module(f"schurkit.{name}")
        assert [n for n in RETIRED if n in module.__all__ or hasattr(module, n)] == [], name
    assert [n for n in RETIRED if hasattr(schurkit, n)] == []
    for module in (schurkit.numerics, schurkit.reports):
        assert [n for n in RETIRED if hasattr(module, n)] == [], module.__name__
    assert not {n for names in _package_imports().values() for n in names} & set(RETIRED)
    # retired SampledCurve methods: per-row values live on the curve's own rows
    assert [n for n in ("single_rows", "expand", "index_of", "validate")
            if hasattr(schurkit.SampledCurve, n)] == []
    assert not hasattr(schurkit.CurvatureProfile, "has_tangent_reversal")
    assert not hasattr(schurkit.sphere.SphericalVerification, "signs_consistent")
    # retired fields: the projected dominance is a census entry, no code read the jumps,
    # the census belongs to the comparison rather than to a conclusion report, and the
    # step policy carries no slack tolerance
    for cls, name in ((schurkit.sphere.SphericalVerification, "dominance"),
                      (schurkit.sphere.SphericalVerification, "jump_slack"),
                      (schurkit.SphericalCurve, "jumps"),
                      (schurkit.MonotonicityReport, "pair"),
                      (schurkit.minkowski.TimelikeMonotonicityReport, "census"),
                      (schurkit.StepControl, "tol")):
        assert name not in {f.name for f in dataclasses.fields(cls)}, name
    for cls in (schurkit.MonotonicityReport, schurkit.minkowski.TimelikeMonotonicityReport):
        assert not hasattr(cls, "census") and not hasattr(cls, "passed"), cls.__name__
