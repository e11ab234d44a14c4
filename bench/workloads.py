"""Seeded job generators and the theorem-derived oracle for each workload.

A workload is a fixed cycle of job slots. Job ``i`` fills slot
``i % len(cycle)`` with parameters drawn from a generator seeded by
``(seed, i)``, so the same seed always gives the same jobs and a timed run
sees the same job mix whatever its length.

Every pair is built to satisfy the hypotheses of its theorem with a margin
well above finite-difference error (or to violate one named hypothesis), so
the expected outcome follows from the theorem rather than from a recorded
run:

* curvature: ``k >= k~ + 0.1`` pointwise (``kg >= |kg~| + 0.1`` on the
  sphere, ``k >= |k~| + 0.15`` in Minkowski space);
* jumps: the comparison curve only jumps where the convex curve does, by
  at least 0.1 rad less;
* turning: at most 0.95 pi for the chord-pivot theorems (so both arcs
  around the pivot stay within a half turn) and at most 1.8 pi otherwise;
* sphere: length 1.5 < pi and geodesic curvature at most 0.6, which keeps
  the curve well inside the auto-plane horizon.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

# Grid and tolerance of every job: the CLI defaults, except the fine export step.
STEP = 1e-3
TOL = 1e-6
EXPORT_STEP = 2.5e-4
SWEEP_GRID = 25          # 300 windows per sweep
CHORD_PAIRS = 800        # expansion-bound pairs per dense chord verify
MAX_ROWS = 50_000        # generator refuses anything that would allocate more

PLANE_L = math.pi
SPHERE_L = 1.5
MINK_L = 1.5
FAMILIES = ("constant", "linear", "sinusoidal", "samples")


@dataclass
class Job:
    """One CLI invocation plus the outcome the oracle expects from it."""

    index: int
    kind: str                      # e.g. "verify:chord", "input-error:step-zero"
    command: str                   # reconstruct | project | verify | sweep
    specs: dict                    # file stem -> spec dict written before the run
    args: list                     # argv after the command; "{name}" = spec path
    expect_exit: int = 0
    evaluated: bool | None = True  # verify/sweep: conclusion evaluated?
    violated: str | None = None    # hypothesis the oracle expects to fail
    check: dict = field(default_factory=dict)   # CSV oracle parameters
    env_seed: int | None = None    # SCHURKIT_SEED for chord verifies

    @property
    def input_error(self) -> bool:
        return self.kind.startswith("input-error")


# ---------------------------------------------------------------------------
# curvature functions with known range
# ---------------------------------------------------------------------------

def _r(x: float) -> float:
    return round(float(x), 6)


def curvature_spec(rng: random.Random, family: str, lo: float, hi: float, length: float) -> dict:
    """Curvature spec of ``family`` whose values stay inside [lo, hi]."""
    if family == "constant":
        return {"preset": "constant", "value": _r(rng.uniform(lo, hi))}
    if family == "linear":
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
        a, b = _r(a), _r(b)
        return {"preset": "linear", "intercept": a, "slope": _r((b - a) / length)}
    if family == "sinusoidal":
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return {
            "preset": "sinusoidal",
            "offset": _r(mid),
            "amplitude": _r(rng.uniform(0.3, 0.95) * half),
            "frequency": _r(rng.uniform(1.0, 3.0)),
            "phase": _r(rng.uniform(0.0, 2.0 * math.pi)),
        }
    n = rng.randint(5, 9)
    s = np.linspace(0.0, length, n)
    return {"samples": [[_r(x), _r(rng.uniform(lo, hi))] for x in s]}


def eval_curvature(spec: dict, s: np.ndarray) -> np.ndarray:
    """Independent evaluation of a curvature spec (the oracle's reference)."""
    s = np.asarray(s, dtype=float)
    if "samples" in spec:
        pts = np.asarray(spec["samples"], dtype=float)
        return np.interp(s, pts[:, 0], pts[:, 1])
    preset = spec["preset"]
    if preset == "constant":
        return np.full_like(s, spec["value"])
    if preset == "linear":
        return spec["intercept"] + spec["slope"] * s
    return spec["offset"] + spec["amplitude"] * np.sin(spec["frequency"] * s + spec["phase"])


def expected_rows(length: float, jump_locs, step: float) -> int:
    """Row count under the grid policy: per segment max(16, ceil(len/h)) + 1."""
    bounds = [0.0, *sorted(jump_locs), length]
    rows = 0
    for a, b in zip(bounds, bounds[1:]):
        rows += max(16, int(math.ceil((b - a) / step - 1e-12))) + 1
    if rows > MAX_ROWS:
        raise ValueError(f"generated grid of {rows} rows exceeds the {MAX_ROWS}-row budget")
    return rows


# ---------------------------------------------------------------------------
# curve pairs
# ---------------------------------------------------------------------------

def _jump_locations(rng: random.Random, count: int, length: float) -> list[float]:
    """``count`` jump locations spread evenly over the interior, jittered by 0.1."""
    edges = np.linspace(0.0, length, count + 2)
    return [_r(e + rng.uniform(-0.1, 0.1)) for e in edges[1:-1]]


def plane_space_pair(rng, fam_c, fam_t, n_jumps, turning, violate=None, length=PLANE_L):
    """Convex plane curve and a dominated space3 companion.

    ``turning`` selects the total-turning regime at the default length pi:
    "half" keeps it below 0.95 pi (chord-pivot theorems), "full" below
    1.8 pi. ``violate`` names a hypothesis to break on purpose: "curvature"
    or "jump".
    """
    L = length
    if turning == "half":
        hi = rng.uniform(0.45, 0.62)
        alpha_rng = (0.25, 0.4)
    elif turning == "gap":          # low curvature, big jumps: jump-interior pivots
        hi = rng.uniform(0.25, 0.32)
        alpha_rng = (0.6, 0.8)
    else:
        hi = rng.uniform(1.0, 1.3)
        alpha_rng = (0.25, 0.4)
    lo = hi - (rng.uniform(0.02, 0.08) if turning == "gap" else rng.uniform(0.1, 0.2))
    locs = _jump_locations(rng, n_jumps, L)
    alphas = [_r(rng.uniform(*alpha_rng)) for _ in locs]
    c = {
        "geometry": "plane",
        "length": L,
        "curvature": curvature_spec(rng, fam_c, lo, hi, L),
        "jumps": [[s, a] for s, a in zip(locs, alphas)],
    }
    if violate == "curvature":
        t_lo, t_hi = hi + 0.15, hi + 0.35
    else:
        t_hi = lo - 0.1
        t_lo = max(0.0, t_hi - rng.uniform(0.05, 0.3))
    t_jumps = []
    for i, (s, a) in enumerate(zip(locs, alphas)):
        if violate == "jump" and i == 0:
            t_jumps.append([s, _r(a + 0.2), [0.0, 0.0, 1.0]])
        elif rng.random() < 0.7:
            t_jumps.append([s, _r(rng.uniform(0.0, a - 0.1)), [0.0, 0.0, 1.0]])
    ct = {
        "geometry": "space3",
        "length": L,
        "curvature": curvature_spec(rng, fam_t, t_lo, t_hi, L),
        "torsion": curvature_spec(rng, FAMILIES[rng.randrange(3)], -0.5, 0.5, L),
        "jumps": t_jumps,
    }
    return c, ct


def sphere_pair(rng, fam_c, fam_t, n_jumps, violate=None, length=SPHERE_L):
    """Spherically convex curve and a companion of smaller |kg|."""
    L = length
    hi = rng.uniform(0.4, 0.6)
    lo = hi - rng.uniform(0.1, 0.2)
    locs = _jump_locations(rng, n_jumps, L)
    alphas = [_r(rng.uniform(0.2, 0.35)) for _ in locs]
    c = {
        "geometry": "sphere",
        "length": L,
        "curvature": curvature_spec(rng, fam_c, lo, hi, L),
        "jumps": [[s, a] for s, a in zip(locs, alphas)],
    }
    if violate == "curvature":
        t_lo, t_hi = hi + 0.15, hi + 0.35
    else:
        bound = lo - 0.1
        t_lo, t_hi = -bound * rng.uniform(0.0, 1.0), bound
    ct = {
        "geometry": "sphere",
        "length": L,
        "curvature": curvature_spec(rng, fam_t, t_lo, t_hi, L),
        "jumps": [[s, _r(rng.uniform(0.0, a - 0.1))] for s, a in zip(locs, alphas)],
    }
    return c, ct


def minkowski_pair(rng, fam_c, fam_t, violate=None, length=MINK_L):
    """Time-like plane curve and a minkowski3 companion of smaller |k|."""
    L = length
    hi = rng.uniform(0.6, 1.0)
    lo = hi - rng.uniform(0.1, 0.3)
    c = {
        "geometry": "minkowski2",
        "length": L,
        "curvature": curvature_spec(rng, fam_c, lo, hi, L),
    }
    if violate == "curvature":
        t_lo, t_hi = hi + 0.2, hi + 0.4
    else:
        t_hi = lo - 0.15
        t_lo = max(0.0, t_hi - rng.uniform(0.05, 0.3))
    ct = {
        "geometry": "minkowski3",
        "length": L,
        "curvature": curvature_spec(rng, fam_t, t_lo, t_hi, L),
        "spin": curvature_spec(rng, FAMILIES[rng.randrange(4)], -1.0, 1.0, L),
    }
    return c, ct


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------

_HYPOTHESIS = {
    ("plane", "curvature"): "curvature_dominance",
    ("plane", "jump"): "jump_dominance",
    ("sphere", "curvature"): "geodesic_curvature_dominance",
    ("minkowski", "curvature"): "curvature_dominance",
}


def _verify(index, theorem, specs, violate=None, geometry="plane", extra=()):
    names = list(specs)
    job = Job(
        index, f"verify:{theorem}" + (f":violate-{violate}" if violate else ""),
        "verify", specs,
        ["--theorem", theorem, *(f"{{{n}}}" for n in names), *extra],
    )
    if violate:
        job.evaluated = False
        job.violated = _HYPOTHESIS[(geometry, violate)]
    return job


def _input_error(index, rng, which):
    """Malformed input that the README says must exit 2."""
    L = PLANE_L
    good = {
        "geometry": "plane", "length": L,
        "curvature": curvature_spec(rng, "constant", 0.3, 0.6, L),
    }
    if which == "one-row-samples":
        bad = dict(good, curvature={"samples": [[0.0, _r(rng.uniform(0.3, 0.6))]]})
        job = Job(index, "input-error:" + which, "verify", {"c": bad},
                  ["--theorem", "budget", "{c}"])
    elif which == "nan-sample":
        pts = curvature_spec(rng, "samples", 0.3, 0.6, L)["samples"]
        pts[len(pts) // 2][1] = float("nan")
        bad = dict(good, curvature={"samples": pts})
        job = Job(index, "input-error:" + which, "verify", {"c": bad},
                  ["--theorem", "budget", "{c}"])
    elif which == "step-zero":
        job = Job(index, "input-error:" + which, "verify", {"c": good},
                  ["--theorem", "budget", "{c}", "--step", "0"])
    else:  # tol-negative
        job = Job(index, "input-error:" + which, "verify", {"c": good},
                  ["--theorem", "budget", "{c}", "--tol", "-1"])
    job.expect_exit = 2
    job.evaluated = None
    return job


INPUT_ERRORS = ("one-row-samples", "nan-sample", "step-zero", "tol-negative")


def _verify_mix_cycle() -> list[tuple]:
    """24 slots: 22 theorem jobs interleaved by theorem, and two input errors.

    The three plane-versus-space theorems cost about the same and fill 15
    slots, so the median job lies inside their cluster instead of on the
    edge between two job sizes.
    """
    per_theorem = {
        "budget": [("valid", 1)],
        "monotonicity": [("valid", 0), ("valid", 1), ("violate-curvature", 0),
                         ("valid", 2), ("valid", 1)],
        "chord": [("valid", 1), ("valid", 0), ("valid", 2), ("violate-jump", 1),
                  ("valid", 0)],
        "global-monotonicity": [("valid", 2), ("violate-jump", 1), ("valid", 0),
                                ("valid", 1), ("valid", 0)],
        "spherical": [("valid", 0), ("valid", 1), ("violate-curvature", 1)],
        "minkowski": [("valid", 0), ("valid", 0), ("violate-curvature", 0)],
    }
    slots = []
    for k in range(5):
        for theorem, variants in per_theorem.items():
            if k < len(variants):
                slots.append((theorem, *variants[k], k))
    # input errors at fixed slots; the kind alternates from cycle to cycle
    slots.insert(8, ("input-error", 0, 0, 0))
    slots.insert(20, ("input-error", 1, 0, 0))
    return slots


VERIFY_MIX_CYCLE = _verify_mix_cycle()


def verify_mix_job(seed: int, index: int) -> Job:
    rng = random.Random(seed * 1_000_003 + index)
    theorem, variant, n_jumps, k = VERIFY_MIX_CYCLE[index % len(VERIFY_MIX_CYCLE)]
    cycle = index // len(VERIFY_MIX_CYCLE)
    if theorem == "input-error":
        return _input_error(index, rng, INPUT_ERRORS[2 * (cycle % 2) + variant])
    # curvature families rotate with the slot and the cycle count, so every
    # theorem meets all four families over a run
    rot = k + cycle
    fam_c, fam_t = FAMILIES[rot % 4], FAMILIES[(rot + 1) % 4]
    violate = variant.split("-", 1)[1] if variant.startswith("violate") else None
    if theorem == "budget":
        c, _ = plane_space_pair(rng, fam_c, fam_t, n_jumps, "full")
        return _verify(index, theorem, {"c": c})
    if theorem in ("monotonicity", "chord", "global-monotonicity"):
        regime = "full" if theorem == "global-monotonicity" else "half"
        c, ct = plane_space_pair(rng, fam_c, fam_t, n_jumps, regime, violate)
        job = _verify(index, theorem, {"c": c, "ct": ct}, violate)
        if theorem == "chord":
            job.env_seed = rng.randrange(1 << 30)
        return job
    if theorem == "spherical":
        c, ct = sphere_pair(rng, fam_c, fam_t, n_jumps, violate)
        return _verify(index, theorem, {"c": c, "ct": ct}, violate, "sphere")
    c, ct = minkowski_pair(rng, fam_c, fam_t, violate)
    return _verify(index, theorem, {"c": c, "ct": ct}, violate, "minkowski")


# sweep-dense: every pair has two large jumps on a smoothly varying
# curvature, so windows whose chord falls in a jump gap get jump-interior
# pivots and the rest get smooth off-grid pivots (interpolated tangents).
# Two of every three jobs are sweeps, so the median job is a sweep whether
# sweeps end up cheaper or dearer than the dense verifies.
SWEEP_DENSE_CYCLE = ("sweep", "verify", "sweep")


def sweep_dense_job(seed: int, index: int) -> Job:
    rng = random.Random(seed * 1_000_003 + index)
    mode = SWEEP_DENSE_CYCLE[index % len(SWEEP_DENSE_CYCLE)]
    fam_c = ("linear", "sinusoidal", "samples")[rng.randrange(3)]
    c, ct = plane_space_pair(rng, fam_c, FAMILIES[rng.randrange(4)], 2, "gap")
    specs = {"c": c, "ct": ct}
    if mode == "sweep":
        job = Job(index, "sweep:chord", "sweep", specs,
                  ["--theorem", "chord", "{c}", "{ct}", "--grid", str(SWEEP_GRID)])
        job.check = {"windows": SWEEP_GRID * (SWEEP_GRID - 1) // 2}
        return job
    job = _verify(index, "chord", specs, extra=("--pairs", str(CHORD_PAIRS)))
    job.kind = "verify:chord:dense"
    job.env_seed = rng.randrange(1 << 30)
    return job


# Curve lengths per export kind, chosen so that every job writes a table
# at about the same cost at the parent commit: the frame ODEs (space3,
# sphere, minkowski3) cost about three times as much per row as the scalar
# ones, and project reconstructs two curves. With similar job costs the
# median and the tail do not jump between clusters of job sizes.
EXPORT_CYCLE = (
    ("plane", 2.0 * math.pi),
    ("space3", 0.5 * math.pi),
    ("project", 0.8),
    ("sphere", 2.0),
    ("minkowski2", 4.0),
    ("minkowski3", 1.5),
)


def export_tables_job(seed: int, index: int) -> Job:
    rng = random.Random(seed * 1_000_003 + index)
    what, length = EXPORT_CYCLE[index % len(EXPORT_CYCLE)]
    fam = FAMILIES[(index // len(EXPORT_CYCLE) + rng.randrange(4)) % 4]
    step = ["--step", repr(EXPORT_STEP)]
    if what == "project":
        c, ct = sphere_pair(rng, fam, FAMILIES[rng.randrange(4)], rng.randrange(2), length=length)
        job = Job(index, "project:sphere", "project", {"c": c, "ct": ct},
                  ["{c}", "--companion", "{ct}", *step])
        job.check = {"rows": expected_rows(length, [j[0] for j in c["jumps"]], EXPORT_STEP)}
        return job
    if what in ("plane", "space3"):
        c, ct = plane_space_pair(rng, fam, fam, rng.randrange(3), "full", length=length)
        spec = c if what == "plane" else ct
    elif what == "sphere":
        spec, _ = sphere_pair(rng, fam, fam, rng.randrange(2), length=length)
    else:
        c, ct = minkowski_pair(rng, fam, fam, length=length)
        spec = c if what == "minkowski2" else ct
    locs = [j[0] for j in spec.get("jumps", [])]
    job = Job(index, f"reconstruct:{what}", "reconstruct", {"c": spec}, ["{c}", *step])
    job.check = {"geometry": what, "spec": spec,
                 "rows": expected_rows(length, locs, EXPORT_STEP)}
    return job


WORKLOADS = {
    "verify-mix": (verify_mix_job, len(VERIFY_MIX_CYCLE)),
    "sweep-dense": (sweep_dense_job, len(SWEEP_DENSE_CYCLE)),
    "export-tables": (export_tables_job, len(EXPORT_CYCLE)),
}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def check_report(job: Job, report: dict) -> str | None:
    """Compare a verify/sweep report with the theorem's prediction."""
    conclusion = report.get("conclusion", {})
    hyps = {h["name"]: h["passed"] for h in report.get("hypotheses", [])}
    if job.evaluated:
        if conclusion.get("evaluated") is not True:
            return "conclusion not evaluated for a pair satisfying the hypotheses"
        bad = [h for h, ok in hyps.items() if ok is not True]
        if bad:
            return f"hypotheses reported violated: {bad}"
        failing = [c["name"] for c in conclusion.get("checks", []) if c.get("passed") is not True]
        if failing or conclusion.get("passed") is not True or not conclusion.get("checks"):
            return f"conclusion checks not passed: {failing}"
        return None
    if conclusion.get("evaluated") is not False:
        return "conclusion evaluated although a hypothesis is violated"
    if hyps.get(job.violated) is not False:
        return f"hypothesis {job.violated} not reported violated"
    return None


def _load_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and values of a CSV table, streamed from disk."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        return header, np.loadtxt(f, delimiter=",", ndmin=2)


def check_sweep_csv(job: Job, path) -> str | None:
    header, data = _load_csv(path)
    if data.shape[0] != job.check["windows"]:
        return f"sweep wrote {data.shape[0]} windows, expected {job.check['windows']}"
    if not np.all(data[:, header.index("passed")] == 1.0):
        return "sweep window reported as failed"
    if np.min(data[:, header.index("chord_slack")]) < -TOL:
        return "negative chord slack in sweep table"
    return None


def _segments(jump: np.ndarray) -> list[slice]:
    out, start = [], 0
    for i in np.flatnonzero(jump == 1.0):
        out.append(slice(start, int(i) + 1))
        start = int(i) + 1
    out.append(slice(start, len(jump)))
    return out


def _speed_check(s, pos, tan, segs) -> float:
    """Worst |finite-difference velocity - mean tangent| within segments."""
    worst = 0.0
    for seg in segs:
        ds = np.diff(s[seg])
        vel = np.diff(pos[seg], axis=0) / ds[:, None]
        mid = 0.5 * (tan[seg][1:] + tan[seg][:-1])
        worst = max(worst, float(np.max(np.abs(vel - mid))))
    return worst


def check_reconstruct_csv(job: Job, path) -> str | None:
    geo, spec = job.check["geometry"], job.check["spec"]
    header, data = _load_csv(path)
    if data.shape[0] != job.check["rows"]:
        return f"{data.shape[0]} rows, grid policy gives {job.check['rows']}"
    dim = {"plane": 2, "minkowski2": 2}.get(geo, 3)
    if len(header) != 2 * dim + 3:
        return f"unexpected header {header}"
    s, pos, tan = data[:, 0], data[:, 1:1 + dim], data[:, 1 + dim:1 + 2 * dim]
    kappa, jump = data[:, -2], data[:, -1]
    segs = _segments(jump)
    if geo.startswith("minkowski"):
        norm = tan[:, 0] ** 2 - np.sum(tan[:, 1:] ** 2, axis=1)
        if np.max(np.abs(norm - 1.0)) > 1e-8 or np.min(tan[:, 0]) <= 0:
            return "tangent is not future unit time-like"
    elif np.max(np.abs(np.linalg.norm(tan, axis=1) - 1.0)) > 1e-9:
        return "tangent is not a unit vector"
    if geo == "sphere" and np.max(np.abs(np.linalg.norm(pos, axis=1) - 1.0)) > 1e-9:
        return "spherical curve leaves the unit sphere"
    if _speed_check(s, pos, tan, segs) > 1e-6:
        return "position derivative disagrees with the tangent"
    expected = eval_curvature(spec["curvature"], s)
    if geo in ("space3", "minkowski3"):
        expected = np.abs(expected)
    ok = np.isfinite(kappa)
    if np.count_nonzero(jump) and ok.all():
        return "jump rows carry a curvature value"
    if np.max(np.abs(kappa[ok] - expected[ok])) > 1e-3:
        return "measured curvature disagrees with the specified curvature"
    return None


def check_project_csv(job: Job, path) -> str | None:
    header, data = _load_csv(path)
    if data.shape[0] != job.check["rows"]:
        return f"{data.shape[0]} rows, grid policy gives {job.check['rows']}"
    col = {name: i for i, name in enumerate(header)}
    if "k_companion" not in col:
        return "companion columns missing"
    r = data[:, col["R"]]
    p = data[:, [col["px"], col["py"], col["pz"]]]
    q = data[:, [col["qx"], col["qy"], col["qz"]]]
    if np.min(r) <= 0:
        return "non-positive projection radius"
    # |P| = |Q| = R because both curves lie on the unit sphere
    if max(np.max(np.abs(np.linalg.norm(p, axis=1) - r)),
           np.max(np.abs(np.linalg.norm(q, axis=1) - r))) > 1e-9 * np.max(r):
        return "projected points are not R(s) times unit vectors"
    if np.any(np.diff(data[:, col["tau"]]) < 0):
        return "projected arc length decreases"
    # the cone section is planar
    centred = p - p.mean(axis=0)
    sv = np.linalg.svd(centred, compute_uv=False)
    if sv[-1] > 1e-9 * sv[0]:
        return "cone section is not planar"
    # curvature dominance survives the projection
    kp, kq = data[:, col["k_projected"]], data[:, col["k_companion"]]
    ok = np.isfinite(kp) & np.isfinite(kq)
    if np.min(kp[ok] - np.abs(kq[ok])) < -1e-4 or np.min(kp[ok]) < -1e-4:
        return "projected curvature dominance violated"
    return None
