"""Shared report containers: hypothesis censuses and check entries.

Verification operations never raise on a violated *hypothesis*; they record
it here so batch sweeps can census failures. Only malformed inputs raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class HypothesisCheck:
    """One censused precondition: its worst slack and where it occurs.

    ``passed`` is None when the check had nothing to evaluate (not verified).
    ``worst_slack`` is signed so that >= 0 means satisfied; ``location`` is
    the arc-length (or jump index) of the worst offender, None when the check
    is global or vacuous.
    """

    name: str
    passed: bool | None
    worst_slack: float | None = None
    location: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": None if self.passed is None else bool(self.passed),
            "worst_slack": _json_float(self.worst_slack),
            "location": _json_float(self.location),
            "note": self.note,
        }


@dataclass
class Census:
    checks: list[HypothesisCheck] = field(default_factory=list)

    def add(self, name: str, passed: bool | None, worst_slack=None, location=None,
            note="") -> None:
        passed = None if passed is None else bool(passed)
        self.checks.append(HypothesisCheck(name, passed, worst_slack, location, note))

    @property
    def all_passed(self) -> bool:
        """Every check passed; one not verified (``passed`` None) does not."""
        return all(c.passed is True for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def get(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_list(self) -> list[dict]:
        return [c.to_dict() for c in self.checks]


def worst_dominance(
    k: np.ndarray, k_tilde: np.ndarray, s_grid: np.ndarray
) -> tuple[float, float, float] | None:
    """The one curvature-dominance rule: ``(slack, location, k_min)`` over finite samples.

    ``slack`` is the smallest ``k - |k~|``, ``location`` its ``s_grid`` value and
    ``k_min`` the smallest ``k``, all over the samples where both are finite;
    None when there are none (every row masked).
    """
    mask = np.isfinite(k) & np.isfinite(k_tilde)
    if not mask.any():
        return None
    diff = k[mask] - np.abs(k_tilde[mask])
    w = int(np.argmin(diff))
    return float(diff[w]), float(s_grid[mask][w]), float(np.min(k[mask]))


def _json_float(x) -> float | None:
    """Coerce to a JSON-safe float (finite) or None."""
    if x is None:
        return None
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    return x
