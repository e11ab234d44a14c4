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

    def dominance(self, name: str, k: np.ndarray, k_tilde: np.ndarray, s: np.ndarray,
                  tol: float, convexity: str | None = None) -> None:
        """The one curvature-dominance rule, over the samples where k and k~ are finite.

        Entry ``name`` holds the smallest ``k - |k~|``, passed at ``-tol``, and
        its ``s`` value; entry ``convexity``, when named, the smallest ``k``,
        passed at ``-tol``. Both are not verified when no sample is finite
        (every row masked).
        """
        mask = np.isfinite(k) & np.isfinite(k_tilde)
        if not mask.any():
            for entry in (name,) if convexity is None else (name, convexity):
                self.add(entry, None, note="no smooth samples")
            return
        diff = k[mask] - np.abs(k_tilde[mask])
        w = int(np.argmin(diff))
        self.add(name, diff[w] >= -tol, float(diff[w]), float(s[mask][w]))
        if convexity is not None:
            k_min = float(np.min(k[mask]))
            self.add(convexity, k_min >= -tol, k_min)


def _json_float(x) -> float | None:
    """Coerce to a JSON-safe float (finite) or None."""
    if x is None:
        return None
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return None
    return x
