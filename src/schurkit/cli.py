"""Batch front-end: ingest curve specs, run pipelines, emit reports.

Curve specifications are JSON files (schema below); verification reports are
JSON, sample tables are CSV. Reports are byte-for-byte deterministic for
identical inputs and flags.

Spec schema (unknown fields are rejected)::

    {
      "geometry": "plane" | "space3" | "sphere" | "minkowski2" | "minkowski3",
      "length": <float>,
      "curvature": {"preset": "constant", "value": k}
                 | {"preset": "linear", "intercept": a, "slope": b}
                 | {"preset": "sinusoidal", "offset": a, "amplitude": b,
                    "frequency": w, "phase": p}
                 | {"samples": [[s, k], ...]},
      "jumps": [[s_j, alpha_j], ...],           # space3 entries may append a
                                                 # rotation direction [dx,dy,dz]
      "initial": {...},                          # per-geometry start data
      "torsion": {...},                          # space3 only, curvature-like
      "spin": {...},                             # minkowski3 only
      "convex": true                             # plane only, default true
    }

Exit codes: 0 pass (or hypothesis-violation censused), 1 conclusion slack
below -tol with hypotheses satisfied, 2 input/schema error, 3 numeric
failure (out of memory included).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .curves import (
    CurvatureProfile,
    Jump,
    constant_curvature,
    curvature_magnitude,
    embed_plane_curve,
    linear_curvature,
    reconstruct_plane,
    reconstruct_space_profile,
    sinusoidal_curvature,
    tabulated_curvature,
)
from .errors import ProfileError, SchurkitError, SpecError
from .minkowski import (
    reconstruct_timelike_2d,
    reconstruct_timelike_3d,
    reversed_chord_inequality,
    timelike_census,
    timelike_curvature,
    timelike_monotonicity,
)
from .numerics import StepControl, unit
from .reports import Census, _json_float
from . import schur
from .schur import ComparisonPair
from .sphere import (
    ProjectionConfig,
    auto_projection_config,
    geodesic_curvature_of,
    project_pair,
    reconstruct_spherical,
    spherical_schur_verify,
)

GEOMETRIES = ("plane", "space3", "sphere", "minkowski2", "minkowski3")
# grid rows per curve, windows per sweep and expansion pairs per verify; more is
# refused before allocating (or, for pairs, before drawing)
MAX_ROWS = 10_000_000
THEOREMS = (
    "budget",
    "monotonicity",
    "global-monotonicity",
    "chord",
    "spherical",
    "minkowski",
)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def _require_keys(d: dict, allowed: dict[str, bool], where: str) -> None:
    if not isinstance(d, dict):
        raise SpecError(f"{where}: expected an object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise SpecError(f"{where}: unknown field(s) {unknown}")
    missing = [k for k, required in allowed.items() if required and k not in d]
    if missing:
        raise SpecError(f"{where}: missing required field(s) {missing}")


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SpecError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SpecError(f"{where}: expected a finite number, got {value!r}")
    return x


def _vector(value, n: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise SpecError(f"{where}: expected a list of {n} numbers")
    return np.array([_number(v, where) for v in value])


def curvature_from_spec(d, where: str):
    _require_keys(
        d,
        {"preset": False, "value": False, "intercept": False, "slope": False,
         "offset": False, "amplitude": False, "frequency": False, "phase": False,
         "samples": False},
        where,
    )
    if "samples" in d:
        if "preset" in d:
            raise SpecError(f"{where}: give either a preset or samples, not both")
        rows = d["samples"]
        if not isinstance(rows, list):
            raise SpecError(f"{where}.samples: expected a list of [s, k] pairs")
        points = [_vector(row, 2, f"{where}.samples[{i}]") for i, row in enumerate(rows)]
        try:
            return tabulated_curvature(points)
        except ProfileError as e:
            raise SpecError(f"{where}.samples: {e}") from e
    preset = d.get("preset")
    if preset == "constant":
        return constant_curvature(_number(d.get("value", 0.0), f"{where}.value"))
    if preset == "linear":
        return linear_curvature(
            _number(d.get("intercept", 0.0), f"{where}.intercept"),
            _number(d.get("slope", 0.0), f"{where}.slope"),
        )
    if preset == "sinusoidal":
        return sinusoidal_curvature(
            _number(d.get("offset", 0.0), f"{where}.offset"),
            _number(d.get("amplitude", 0.0), f"{where}.amplitude"),
            _number(d.get("frequency", 1.0), f"{where}.frequency"),
            _number(d.get("phase", 0.0), f"{where}.phase"),
        )
    raise SpecError(f"{where}: unknown curvature preset {preset!r}")


def _jumps_from_spec(entries, length: float, geometry: str, where: str) -> tuple[Jump, ...]:
    if entries is None:
        return ()
    if geometry.startswith("minkowski") and entries:
        raise SpecError(f"{where}: jumps are not supported for {geometry} curves")
    if not isinstance(entries, list):
        raise SpecError(f"{where}: jumps must be a list of [s, alpha] entries")
    jumps = []
    for i, e in enumerate(entries):
        loc = f"{where}[{i}]"
        if not isinstance(e, list) or len(e) not in (2, 3):
            raise SpecError(f"{loc}: expected [s, alpha] (space3 may append a direction)")
        s_j = _number(e[0], f"{loc}.s")
        alpha = _number(e[1], f"{loc}.alpha")
        direction = None
        if len(e) == 3:
            if geometry != "space3":
                raise SpecError(f"{loc}: a rotation direction is only valid for space3")
            direction = tuple(_vector(e[2], 3, f"{loc}.direction"))
            if not any(direction):
                raise SpecError(f"{loc}.direction: a rotation direction must be a nonzero vector")
        if not 0.0 < s_j < length:
            raise SpecError(f"{loc}: jump location {s_j} must lie strictly inside (0, {length})")
        if not 0.0 <= alpha <= math.pi + 1e-12:
            raise SpecError(f"{loc}: jump angle {alpha} outside [0, pi]")
        if geometry == "space3" and alpha > 0.0 and direction is None:
            raise SpecError(f"{loc}: a space3 jump with a positive angle needs a rotation "
                            "direction, [s, alpha, [dx, dy, dz]]")
        jumps.append(Jump(s_j, alpha, direction))
    locs = [j.location for j in jumps]
    if any(b <= a for a, b in zip(locs, locs[1:])):
        raise SpecError(f"{where}: jump locations must be strictly increasing")
    return tuple(jumps)


def load_spec(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as e:
        raise SpecError(f"{path}: no such spec file") from e
    except (OSError, UnicodeDecodeError) as e:
        raise SpecError(f"{path}: cannot read spec file ({e})") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise SpecError(f"{path}: JSON nested too deeply") from e
    if not isinstance(data, dict):
        raise SpecError(f"{path}: top level must be an object")
    return data


TOP_KEYS = {
    "plane": {"geometry": True, "length": True, "curvature": True, "jumps": False,
              "initial": False, "convex": False},
    "space3": {"geometry": True, "length": True, "curvature": True, "jumps": False,
               "initial": False, "torsion": False},
    "sphere": {"geometry": True, "length": True, "curvature": True, "jumps": False,
               "initial": False},
    "minkowski2": {"geometry": True, "length": True, "curvature": True,
                   "jumps": False, "initial": False},
    "minkowski3": {"geometry": True, "length": True, "curvature": True,
                   "jumps": False, "initial": False, "spin": False},
}


@dataclass
class BuiltCurve:
    geometry: str
    length: float
    curve: object
    profile: CurvatureProfile | None = None


def _merge_jumps(jumps: tuple[Jump, ...], extra_locs, length: float) -> tuple[Jump, ...]:
    """Insert zero-angle jumps at foreign locations so grids line up."""
    locs = {j.location: j for j in jumps}
    for x in extra_locs:
        x = float(x)
        if 0.0 < x < length and not any(abs(x - l) <= 1e-12 for l in locs):
            locs[x] = Jump(x, 0.0)
    return tuple(locs[k] for k in sorted(locs))


def _spec_jumps(spec: dict, path: str) -> tuple[str, float, tuple[Jump, ...]]:
    """Geometry, length and validated jumps of a spec, top-level keys checked."""
    geometry = spec.get("geometry")
    if geometry not in GEOMETRIES:
        raise SpecError(f"{path}: geometry must be one of {list(GEOMETRIES)}, got {geometry!r}")
    _require_keys(spec, TOP_KEYS[geometry], path)
    length = _number(spec["length"], f"{path}.length")
    if not length > 0:
        raise SpecError(f"{path}.length must be positive")
    return geometry, length, _jumps_from_spec(spec.get("jumps"), length, geometry, f"{path}.jumps")


def build_curve(spec: dict, control: StepControl, path: str, extra_jump_locs=()) -> BuiltCurve:
    geometry, length, jumps = _spec_jumps(spec, path)
    if length / control.step_h > MAX_ROWS:
        raise SpecError(f"{path}: --step {control.step_h:g} over length {length:g} "
                        f"needs more than the budget of {MAX_ROWS} grid rows")
    k = curvature_from_spec(spec["curvature"], f"{path}.curvature")
    jumps = _merge_jumps(jumps, extra_jump_locs, length)
    initial = spec.get("initial", {})

    if geometry == "plane":
        _require_keys(initial, {"point": False, "angle": False}, f"{path}.initial")
        start = _vector(initial.get("point", [0.0, 0.0]), 2, f"{path}.initial.point")
        theta0 = _number(initial.get("angle", 0.0), f"{path}.initial.angle")
        convex = spec.get("convex", True)
        if not isinstance(convex, bool):
            raise SpecError(f"{path}.convex must be a boolean")
        profile = CurvatureProfile(length, k, jumps, convex=convex)
        return BuiltCurve(geometry, length, reconstruct_plane(profile, start, theta0, control), profile)

    if geometry == "space3":
        _require_keys(initial, {"point": False, "frame": False}, f"{path}.initial")
        start = _vector(initial.get("point", [0.0, 0.0, 0.0]), 3, f"{path}.initial.point")
        frame = initial.get("frame", {})
        _require_keys(frame, {"tangent": False, "normal": False}, f"{path}.initial.frame")
        t = unit(_vector(frame.get("tangent", [1.0, 0.0, 0.0]), 3, f"{path}.initial.frame.tangent"))
        n_raw = _vector(frame.get("normal", [0.0, 1.0, 0.0]), 3, f"{path}.initial.frame.normal")
        n = unit(n_raw - np.dot(n_raw, t) * t)
        b = np.cross(t, n)
        torsion = curvature_from_spec(spec.get("torsion", {"preset": "constant", "value": 0.0}),
                                      f"{path}.torsion")
        profile = CurvatureProfile(length, k, jumps, convex=False)
        curve = reconstruct_space_profile(profile, torsion, start, (t, n, b), control)
        return BuiltCurve(geometry, length, curve, profile)

    if geometry == "sphere":
        _require_keys(initial, {"position": False, "tangent": False}, f"{path}.initial")
        c0 = unit(_vector(initial.get("position", [1.0, 0.0, 0.0]), 3, f"{path}.initial.position"))
        t_raw = _vector(initial.get("tangent", [0.0, 1.0, 0.0]), 3, f"{path}.initial.tangent")
        t0 = unit(t_raw - np.dot(t_raw, c0) * c0)
        if length > math.pi + 1e-9:
            raise SpecError(f"{path}.length: spherical curves are limited to length <= pi")
        curve = reconstruct_spherical(k, jumps, length, (c0, t0), control)
        return BuiltCurve(geometry, length, curve)

    if geometry == "minkowski2":
        _require_keys(initial, {"point": False, "rapidity": False}, f"{path}.initial")
        start = _vector(initial.get("point", [0.0, 0.0]), 2, f"{path}.initial.point")
        phi0 = _number(initial.get("rapidity", 0.0), f"{path}.initial.rapidity")
        return BuiltCurve(geometry, length, reconstruct_timelike_2d(k, length, phi0, start, control))

    # minkowski3
    _require_keys(initial, {"point": False, "frame": False}, f"{path}.initial")
    start = _vector(initial.get("point", [0.0, 0.0, 0.0]), 3, f"{path}.initial.point")
    frame = initial.get("frame", {})
    _require_keys(frame, {"tangent": False, "e1": False, "e2": False}, f"{path}.initial.frame")
    frame0 = None
    if frame:
        frame0 = (
            _vector(frame.get("tangent", [1.0, 0.0, 0.0]), 3, f"{path}.initial.frame.tangent"),
            _vector(frame.get("e1", [0.0, 1.0, 0.0]), 3, f"{path}.initial.frame.e1"),
            _vector(frame.get("e2", [0.0, 0.0, 1.0]), 3, f"{path}.initial.frame.e2"),
        )
    spin = curvature_from_spec(spec.get("spin", {"preset": "constant", "value": 0.0}),
                               f"{path}.spin")
    curve = reconstruct_timelike_3d(k, spin, length, start, frame0, control)
    return BuiltCurve(geometry, length, curve)


def _build_aligned(spec_a, path_a, spec_b, path_b, control) -> tuple[BuiltCurve, BuiltCurve]:
    """Build two curves once each, each also breaking at the other's jumps (shared grid)."""
    locs_a = [j.location for j in _spec_jumps(spec_a, path_a)[2]]
    locs_b = [j.location for j in _spec_jumps(spec_b, path_b)[2]]
    built_a = build_curve(spec_a, control, path_a, extra_jump_locs=locs_b)
    built_b = build_curve(spec_b, control, path_b, extra_jump_locs=locs_a)
    if abs(built_a.length - built_b.length) > 1e-12:
        raise SpecError(f"curves must have equal length: {built_a.length} vs {built_b.length}")
    return built_a, built_b


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

CSV_CHUNK = 4096  # values formatted per pass, so a table never sits in memory as text
_G17_WIDTH = 24  # bytes of the longest %.17g field, "-1.7976931348623157e+308"
_FIELD = _G17_WIDTH + 1  # a CSV field and its separator


def _open_output(path: str, mode: str = "w"):
    """Open an output file for writing; a path that cannot be opened is an input error."""
    try:
        return open(path, mode)
    except OSError as e:
        raise SpecError(f"cannot write {path}: {e.strerror or e}") from e


def write_csv(path: str, header: list[str], columns) -> None:
    """Write equal-length numeric ``columns`` (float or boolean arrays, or
    sequences of floats) as CSV rows under ``header``. ``columns`` may also be
    an iterator of such blocks of columns, whose rows are written in turn as
    it yields them.

    Values print as ``%.17g`` (round-trip exact; ``nan``, ``inf``, ``-0``;
    booleans as ``0``/``1``), byte for byte as Python's ``%`` writes them, by
    the array formatter ``_format_g17``. Rows are formatted and written a
    chunk at a time: all columns of ``CSV_CHUNK // len(block)`` rows. A write
    that fails, a block's computation included, leaves no partial file.
    """
    blocks = columns if isinstance(columns, Iterator) else (columns,)
    with _open_output(path, "wb") as f:
        try:
            f.write((",".join(header) + "\n").encode())
            for block in blocks:
                rows = max(1, CSV_CHUNK // len(block))
                for lo in range(0, len(block[0]), rows):
                    f.write(_csv_rows([c[lo : lo + rows] for c in block]))
        except BaseException:
            f.close()
            if os.path.isfile(path):  # not a device such as /dev/null
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


def _csv_rows(chunk: list) -> np.ndarray:
    """The CSV bytes of one chunk of rows, given as its columns.

    The values are formatted row-major in one ``_format_g17`` pass, each as a
    NUL-padded field that ends in its comma; the last field of a row ends in a
    newline instead, and one boolean compress drops the padding.
    """
    fields = _format_g17(np.array(chunk, dtype=float).T.ravel()).reshape(len(chunk[0]), -1)
    fields[:, -1] = ord("\n")
    return fields[fields != 0]


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact doubles ``10**k`` (k = 0..22) and their Veltkamp halves."""
    pow10 = np.array([float(10**k) for k in range(23)])
    return (pow10, *_veltkamp(pow10))


@functools.cache
def _g17_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Digit and layout tables of ``_format_g17``, built on first use.

    ``ascii4[q]`` is the ASCII of the 4-digit group ``q`` as one little-endian
    word and ``zeros4[q]`` its trailing-zero count (4 for 0000).
    ``layout[((E + 6) * 17 + nd - 1) * 2 + neg]`` lists, for decimal exponent
    ``E`` (-6..16), ``nd`` significant digits and the sign bit ``neg``, the
    source byte of each of the ``_FIELD`` output bytes. ``_format_g17`` builds
    28-byte source rows: the 17 digits at bytes 0 and 4..19, then constants
    (they are ``words``): ``.0e`` at 1..3, ``-56`` at 20..22, NUL at 23 and
    25..27, and the comma at 24, which ends every field.
    """
    quad = np.arange(10_000)
    ascii4 = sum((48 + quad // 10**j % 10) << (8 * (3 - j)) for j in range(4)).astype("<u4")
    zeros4 = np.select([quad % 10**j == 0 for j in (4, 3, 2, 1)], [4, 3, 2, 1], 0)
    dot, zero, exp, minus, five, six, nul, comma = 1, 2, 3, 20, 21, 22, 23, 24
    digit = [0, *range(4, 20)]
    layout = np.full((23 * 17, 2, _FIELD), nul, np.intp)
    layout[:, :, -1] = comma
    for e in range(-6, 17):
        for nd in range(1, 18):
            if e < -4:  # d.ddde-0X
                picks = [digit[0], *([dot, *digit[1:nd]] if nd > 1 else []),
                         exp, minus, zero, five if e == -5 else six]
            elif e < 0:  # 0.000ddd
                picks = [zero, dot, *[zero] * (-e - 1), *digit[:nd]]
            else:  # ddd.ddd, or ddd000 when nothing follows the point
                picks = [*digit[: e + 1], *([dot, *digit[e + 1 : nd]] if nd > e + 1 else [])]
            row = layout[(e + 6) * 17 + nd - 1]
            row[0, : len(picks)] = picks
            row[1, : len(picks) + 1] = [minus, *picks]
    words = np.frombuffer(b"0.0e-56\0,\0\0\0", "<u4")
    return ascii4, zeros4, layout.reshape(-1, _FIELD), words


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into 26-bit halves, ``hi + lo == a`` exactly."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's error-free product: ``hi + lo == a * 10**k`` exactly."""
    pow10, p_hi, p_lo = _pow10()
    b_hi, b_lo = p_hi[k], p_lo[k]
    a_hi, a_lo = _veltkamp(a)
    hi = a * pow10[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _decade_step(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """+1 where ``hi + lo < 1e16``, -1 where ``hi + lo >= 1e17``, else 0 (exactly)."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return below.astype(np.intp) - above


def _format_g17(x: np.ndarray) -> np.ndarray:
    """CSV fields of ``"%.17g" % v`` for each double of ``x``: rows of ``_FIELD``
    bytes (uint8), the same bytes NUL-padded to ``_G17_WIDTH``, then a comma.

    A value with ``1e-6 <= |v| < 1e17`` is scaled by the exact power ``10**k``
    that brings ``|v| * 10**k`` into ``[1e16, 1e17)``; Dekker's product gives
    it exactly as ``hi + lo``, and ``hi`` is an even integer there, so
    ``hi + rint(lo)`` is its round-half-even integer: the 17 significant
    digits. They are laid out by the ``%g`` rules (fixed notation for decimal
    exponents -4..16, ``e-05``/``e-06`` below; trailing zeros and a bare
    point dropped) through a 4-digit ASCII table, with the sign, padding and
    comma, in one byte gather. Zeros print as ``0``/``-0``. Everything else
    (nan, inf, other magnitudes, an exact tie in ``lo``) is formatted by
    Python, one value at a time.
    """
    ascii4, zeros4, layout, words = _g17_tables()
    a = np.abs(x)
    exact = (a >= 1e-6) & (a < 1e17)  # False for nan
    a[~exact] = 1.0
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 0, 22)
    hi, lo = _times_pow10(a, k)
    step = _decade_step(hi, lo)
    moved = np.flatnonzero(step)
    if moved.size:  # log10 missed the decade next to a power of ten
        km = k[moved] + step[moved]
        fits = (km >= 0) & (km <= 22)
        km[~fits] = 16
        k[moved] = km
        hi[moved], lo[moved] = _times_pow10(a[moved], km)
        exact[moved] &= fits & (_decade_step(hi[moved], lo[moved]) == 0)
    r = np.rint(lo)
    n17 = hi.astype(np.int64) + r.astype(np.int64)
    # A tie, and a rounding up to 10**17 (a carry into the next decade, which
    # no double in range needs), are left to Python.
    exact &= (np.abs(lo - r) != 0.5) & (n17 < 10**17)
    # Lanes left to Python get the digits of 0 at exponent 0, laid out as "0":
    # right for +-0, overwritten below for the rest.
    n17[~exact] = 0
    k[~exact] = 16

    lead, rest = np.divmod(n17, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    quads = (*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    src = np.empty((len(x), 7), "<u4")
    src[:, 0] = words[0] + lead
    for j, q in enumerate(quads, start=1):
        src[:, j] = ascii4[q]
    src[:, 5:] = words[1:]
    q1, q2, q3, q4 = quads
    tail = zeros4[q4] + (q4 == 0) * (zeros4[q3] + (q3 == 0) * (zeros4[q2] + (q2 == 0) * zeros4[q1]))
    at = layout[((22 - k) * 17 + 16 - tail) * 2 + np.signbit(x)]
    at += np.arange(0, src.size * 4, 28)[:, None]  # row offsets into the flat source bytes
    out = src.view(np.uint8).ravel().take(at)

    slow = np.flatnonzero(~exact & (x != 0))
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{_G17_WIDTH}")
        out[slow, :-1] = text.view(np.uint8).reshape(-1, _G17_WIDTH)
    return out


def write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with _open_output(path) as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _unevaluated_notes(census: Census) -> list[str]:
    """The report note of a census that does not hold: violated, or not verified."""
    if any(check.passed is False for check in census):
        return ["hypotheses violated; conclusion not evaluated"]
    return [] if census.all_passed else ["hypotheses not verified; conclusion not evaluated"]


def _conclusion_dict(checks: list[tuple], evaluated: bool) -> dict:
    entries = [
        {"name": n, "passed": bool(p), "slack": _json_float(s), "location": _json_float(loc)}
        for (n, p, s, loc) in checks
    ]
    passed = all(e["passed"] for e in entries) if evaluated and entries else None
    return {"evaluated": evaluated, "checks": entries, "passed": passed}


# ---------------------------------------------------------------------------
# subcommand: reconstruct
# ---------------------------------------------------------------------------

def _control(args) -> StepControl:
    """Grid policy from --step and --tol, both finite and positive."""
    for flag, value in (("--step", args.step), ("--tol", args.tol)):
        if not (math.isfinite(value) and value > 0):
            raise SpecError(f"{flag} must be a finite positive number, got {value!r}")
    return StepControl(step_h=args.step)


def cmd_reconstruct(args) -> int:
    control = _control(args)
    built = build_curve(load_spec(args.spec), control, args.spec)
    curve = built.curve
    jump = np.zeros(len(curve.s))
    jump[curve.jump_marks] = 1.0

    if built.geometry in ("plane", "space3"):
        kappa = curvature_magnitude(curve)
        dims = "xy" if built.geometry == "plane" else "xyz"
    elif built.geometry == "sphere":
        kappa = geodesic_curvature_of(curve)
        dims = "xyz"
    else:
        kappa = timelike_curvature(curve)
        dims = "tx" if built.geometry == "minkowski2" else "txy"

    header = ["s", *dims, *(f"t{d}" for d in dims), "curvature", "jump"]
    write_csv(args.out, header, [curve.s, *curve.position.T, *curve.tangent.T, kappa, jump])
    return 0


# ---------------------------------------------------------------------------
# subcommand: project
# ---------------------------------------------------------------------------

def _parse_plane(text: str) -> ProjectionConfig:
    try:
        upart, dpart = text.split(":")
        ux, uy, uz = (float(v) for v in upart.split(","))
        normal, d = np.array([ux, uy, uz]), float(dpart)
        if not (np.all(np.isfinite(normal)) and math.isfinite(d)):
            raise ValueError("components and offset must be finite")
        return ProjectionConfig(tuple(unit(normal)), d)
    except (ValueError, SchurkitError) as e:
        raise SpecError(f"--plane must look like ux,uy,uz:d ({e})") from e


def cmd_project(args) -> int:
    control = _control(args)
    spec = load_spec(args.spec)
    if args.companion:
        built, built_t = _build_aligned(
            spec, args.spec, load_spec(args.companion), args.companion, control
        )
    else:
        built, built_t = build_curve(spec, control, args.spec), None
    if built.geometry != "sphere":
        raise SpecError("project requires a sphere-geometry spec")
    if built_t is not None and built_t.geometry != "sphere":
        raise SpecError("companion spec must also be sphere geometry")
    curve = built.curve

    if args.plane:
        config = _parse_plane(args.plane)
    else:
        config = auto_projection_config(curve)
    pair = project_pair(curve, curve if built_t is None else built_t.curve, config)

    header = ["s", "R", "tau", "px", "py", "pz", "k_projected"]
    cols = [curve.s, pair.R, pair.tau, *pair.plane_curve.position.T, pair.plane_curvature]
    if built_t is not None:
        header += ["qx", "qy", "qz", "k_companion"]
        cols += [*pair.space_curve.position.T, pair.space_curvature]
    write_csv(args.out, header, cols)
    return 0


# ---------------------------------------------------------------------------
# subcommand: verify
# ---------------------------------------------------------------------------

_THEOREM_GEOMETRY = {
    "budget": ("plane",),
    "monotonicity": ("plane",),
    "global-monotonicity": ("plane",),
    "chord": ("plane",),
    "spherical": ("sphere",),
    "minkowski": ("minkowski2",),
}
_TILDE_GEOMETRY = {
    "monotonicity": ("plane", "space3"),
    "global-monotonicity": ("plane", "space3"),
    "chord": ("plane", "space3"),
    "spherical": ("sphere",),
    "minkowski": ("minkowski2", "minkowski3"),
}


def _parse_s_star(text: str | None, length: float) -> float | None:
    if text is None:
        return None
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not 0.0 <= x <= length + 1e-12:
        raise SpecError(f"--s-star must be a finite number in [0, L={length}], got {text!r}")
    return x


def _parse_range(text: str | None, length: float):
    if text is None:
        return None
    try:
        a, b = (float(v) for v in text.split(":"))
    except ValueError as e:
        raise SpecError("--range must look like s1:s2") from e
    if not 0.0 <= a < b <= length + 1e-12:
        raise SpecError(f"--range [{a}, {b}] must satisfy 0 <= s1 < s2 <= L={length}")
    return (a, b)


def _build_pair(args, control, theorem):
    spec_c = load_spec(args.spec_c)
    geometry = spec_c.get("geometry")
    if geometry not in _THEOREM_GEOMETRY[theorem]:
        raise SpecError(
            f"theorem {theorem!r} needs a {_THEOREM_GEOMETRY[theorem]} primary curve, got {geometry!r}"
        )
    if theorem == "budget":
        return build_curve(spec_c, control, args.spec_c), None

    if not args.spec_c_tilde:
        raise SpecError(f"theorem {theorem!r} needs a comparison spec")
    spec_t = load_spec(args.spec_c_tilde)
    geo_t = spec_t.get("geometry")
    if geo_t not in _TILDE_GEOMETRY[theorem]:
        raise SpecError(
            f"theorem {theorem!r} accepts {_TILDE_GEOMETRY[theorem]} comparison curves, got {geo_t!r}"
        )
    return _build_aligned(spec_c, args.spec_c, spec_t, args.spec_c_tilde, control)


def _comparison_curves(built_c, built_t):
    c = built_c.curve
    if built_t is None:
        return c, None
    ct = built_t.curve
    if built_t.geometry in ("plane", "minkowski2"):
        ct = embed_plane_curve(ct)
    return c, ct


def cmd_verify(args) -> int:
    control = _control(args)
    if not 1 <= args.pairs <= MAX_ROWS:
        raise SpecError(f"--pairs must be between 1 and the budget of {MAX_ROWS} "
                        f"expansion pairs, got {args.pairs}")
    theorem = args.theorem
    seed_text = os.environ.get("SCHURKIT_SEED", "0")
    try:
        seed = int(seed_text)
    except ValueError:
        raise SpecError(f"SCHURKIT_SEED must be an integer, got {seed_text!r}") from None
    built_c, built_t = _build_pair(args, control, theorem)
    s_range = _parse_range(args.range, built_c.length)
    if s_range and theorem in ("monotonicity", "chord"):  # the range is the checked window
        s, row = built_c.curve.s, built_c.curve.nearest_row
        lo, hi = s[row(s_range[0], side="plus")], s[row(s_range[1], side="minus")]
        if lo == hi:
            raise SpecError(f"--range {args.range} snaps both ends to the grid row s={lo:.9g}; "
                            f"widen it or use a smaller --step than {args.step:g}")
    s_star = _parse_s_star(args.s_star, built_c.length)

    config_echo = {
        "step": args.step,
        "tol": args.tol,
        "range": list(s_range) if s_range else None,
        "s_star": args.s_star,
        "plane": args.plane,
        "pairs": args.pairs,
        "seed": seed,
        "spec_c": args.spec_c,
        "spec_c_tilde": args.spec_c_tilde,
        "resampling": "shared segment grid at ingestion",
    }
    report = {
        "check": theorem,
        "tool": {"name": "schurkit", "version": __version__},
        "config": config_echo,
        "notes": [],
    }

    c, ct = _comparison_curves(built_c, built_t)

    # each branch censuses the hypotheses; ``conclusion`` runs only when they hold
    if theorem == "budget":
        census = Census()
        census.add("convex_flag", built_c.profile.convex)

        def conclusion():
            total, passed, slack = schur.turning_budget(c.theta, args.tol)
            report["notes"].append(f"total turning = {total:.12g}")
            return [("turning_budget", passed, slack, None)]

    elif theorem == "spherical":
        config = _parse_plane(args.plane) if args.plane else "auto"
        verification = spherical_schur_verify(c, ct, config, args.tol)
        census = verification.census
        report["config"]["plane"] = {
            "u": [float(v) for v in verification.config.normal],
            "d": verification.config.d,
            "auto": verification.auto_plane,
        }

        def conclusion():
            report["notes"].append(
                f"hinge apex angles: {verification.hinge.angle_first:.12g} <= "
                f"{verification.hinge.angle_second:.12g}"
            )
            return [
                ("plane_monotonicity", verification.monotonicity.conclusion_passed,
                 verification.monotonicity.min_slack, verification.monotonicity.argmin_s),
                ("plane_chord", verification.chords.chord_passed,
                 verification.chords.chord_slack, None),
                ("spherical_chord", verification.conclusion_passed,
                 verification.conclusion_slack, None),
            ]

    elif theorem == "minkowski":
        census = timelike_census(c, ct)

        def conclusion():
            pivot = built_c.length / 2 if s_star is None else s_star
            mono = timelike_monotonicity(c, ct, pivot, args.tol)
            chord = reversed_chord_inequality(c, ct, args.tol)
            return [
                ("monotonicity", mono.conclusion_passed, mono.min_slack, mono.argmin_s),
                ("reversed_chord", chord.chord_passed, chord.slack, None),
                ("reversed_cauchy_schwarz", chord.cauchy_schwarz_passed,
                 chord.cauchy_schwarz_slack, None),
            ]

    else:  # plane-versus-space family: one pair, and one window for every windowed check
        pair = ComparisonPair(c, ct, args.tol)
        census = pair.census

        def conclusion():
            # the pivot assumes the hypotheses (convexity, the turning budget), so it
            # is derived only once they hold
            if theorem == "global-monotonicity":
                mono = pair.full_range("auto" if s_star is None else s_star)
                if mono.note:
                    report["notes"].append(mono.note)
            else:
                window = pair.window(s_range)
                mono = pair.monotonicity(window)
            checks = [("monotonicity", mono.conclusion_passed, mono.min_slack, mono.argmin_s)]
            if theorem in ("monotonicity", "chord"):
                chord = pair.chord(window)
                checks.append(("chord", chord.chord_passed, chord.chord_slack, None))
                checks.append(("chord_bound", chord.bound_passed, chord.bound_slack, None))
            if theorem == "chord":
                lo, hi = s_range if s_range else (0.0, built_c.length)
                quarter = (hi - lo) / 4.0
                nested = pair.nested_chord(window, lo + quarter, hi - quarter)
                checks.append(("nested_chord", nested.passed, nested.slack, None))
                expansion = pair.expansion(args.pairs, seed)
                checks.append(
                    ("expansion_bound", expansion.passed, expansion.min_slack,
                     expansion.worst_pair[0])
                )
            return checks

    report["hypotheses"] = census.to_list()
    report["notes"] += _unevaluated_notes(census)
    checks = conclusion() if census.all_passed else []
    report["conclusion"] = _conclusion_dict(checks, census.all_passed)
    write_report(report, args.report)
    # a failing conclusion under satisfied hypotheses means either a toolkit
    # defect or a genuine counterexample candidate: exit 1, never silently
    failing = [(n, s) for (n, p, s, _) in checks if not p]
    if failing:
        detail = ", ".join(f"{n} (slack {s:.3e})" for n, s in failing)
        print(
            f"schurkit: CONCLUSION FAILED for {theorem} with hypotheses satisfied: "
            f"{detail}; toolkit defect or counterexample candidate",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommand: sweep
# ---------------------------------------------------------------------------

def _running_min(worst: float | None, values: np.ndarray) -> float:
    """``min`` of the values seen so far (``worst``, None before any) and
    ``values``, as one ``min`` over all of them in order takes it, NaN included."""
    values = values.tolist()
    return min(values if worst is None else [worst, *values])


def cmd_sweep(args) -> int:
    if args.theorem not in ("monotonicity", "chord"):
        raise SpecError("sweep supports the windowed checks: monotonicity, chord")
    if args.grid < 2:
        raise SpecError("--grid must be at least 2")
    if args.grid * (args.grid - 1) // 2 > MAX_ROWS:
        raise SpecError(f"--grid {args.grid} needs more than the budget of {MAX_ROWS} windows "
                        f"(grid*(grid-1)/2 table rows)")
    control = _control(args)
    built_c, built_t = _build_pair(args, control, args.theorem)
    c, ct = _comparison_curves(built_c, built_t)

    pair = ComparisonPair(c, ct, args.tol)
    hypotheses_ok = pair.census.all_passed
    anchors = np.linspace(0.0, built_c.length, args.grid)
    snapped = np.unique(c.s[c.nearest_row(anchors, side="minus")])
    # the windows are the anchor pairs in ``np.triu_indices`` order: row i holds
    # (i, j) for j > i and starts at window first[i]; none unless the hypotheses hold
    n = len(snapped)
    first = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    total = int(first[-1]) if hypotheses_ok else 0
    worst_mono = worst_chord = None
    mono_passed = chord_passed = all_passed = True

    def blocks():
        """The CSV columns of each ``WINDOW_BLOCK`` windows; the worsts and flags run along."""
        nonlocal worst_mono, worst_chord, mono_passed, chord_passed, all_passed
        for lo in range(0, total, schur.WINDOW_BLOCK):
            k = np.arange(lo, min(lo + schur.WINDOW_BLOCK, total))
            i = first.searchsorted(k, side="right") - 1
            ends = np.column_stack([snapped[i], snapped[k - first[i] + i + 1]])
            windows = pair.windows(ends)
            min_slack, _ = pair.monotonicity_minima(windows)
            chord = pair.chords(windows)
            mono_ok = min_slack >= -args.tol
            ok = mono_ok & chord.passed
            worst_mono = _running_min(worst_mono, min_slack)
            worst_chord = _running_min(worst_chord, chord.chord_slack)
            mono_passed &= bool(mono_ok.all())
            chord_passed &= bool(chord.chord_passed.all())
            all_passed &= bool(ok.all())
            yield [*ends.T, chord.s_star, windows.jump_interior, min_slack, chord.plane_chord,
                   chord.space_chord, chord.chord_slack, chord.bound_slack, ok]

    header = ["s1", "s2", "s_star", "jump_interior", "min_slack",
              "plane_chord", "space_chord", "chord_slack", "bound_slack", "passed"]
    write_csv(args.out, header, blocks())

    checks = [("worst_monotonicity_slack", mono_passed, worst_mono, None),
              ("worst_chord_slack", chord_passed, worst_chord, None)] if hypotheses_ok else []
    report = {
        "check": f"sweep:{args.theorem}",
        "tool": {"name": "schurkit", "version": __version__},
        "config": {
            "step": args.step, "tol": args.tol, "grid": args.grid,
            "spec_c": args.spec_c, "spec_c_tilde": args.spec_c_tilde,
        },
        "hypotheses": pair.census.to_list(),
        "conclusion": _conclusion_dict(checks, hypotheses_ok),
        "notes": [f"pairs evaluated: {total}", *_unevaluated_notes(pair.census)],
    }
    if args.report:
        write_report(report, args.report)
    if not all_passed:  # never without windows, so never when the hypotheses fail
        print(
            f"schurkit: CONCLUSION FAILED in sweep with hypotheses satisfied: "
            f"worst monotonicity slack {worst_mono:.3e}, worst chord slack "
            f"{worst_chord:.3e}; toolkit defect or counterexample candidate",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step", type=float, default=1e-3, help="arc-length step bound")
    p.add_argument("--tol", type=float, default=1e-6, help="inequality slack tolerance")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Reconstruct curves from curvature data and verify chord comparison theorems.",
    )
    parser.add_argument("--version", action="version", version=f"schurkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="build a curve and dump a CSV sample table")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("project", help="cone-project a spherical curve onto a plane")
    p.add_argument("spec")
    p.add_argument("--companion", default=None, help="optional companion sphere spec")
    p.add_argument("--plane", default=None, help="projection plane as ux,uy,uz:d")
    p.add_argument("-o", "--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("verify", help="run one theorem check and emit a JSON report")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("spec_c")
    p.add_argument("spec_c_tilde", nargs="?", default=None)
    p.add_argument("--range", default=None, help="window s1:s2 (default full curve)")
    p.add_argument("--s-star", dest="s_star", default=None,
                   help="pivot parameter (default auto/midpoint)")
    p.add_argument("--plane", default=None, help="projection plane as ux,uy,uz:d")
    p.add_argument("--pairs", type=int, default=50, help="expansion-check sample pairs")
    p.add_argument("--report", default=None, help="report JSON path (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify over an NxN window grid")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("spec_c")
    p.add_argument("spec_c_tilde", nargs="?", default=None)
    p.add_argument("--grid", type=int, default=10)
    p.add_argument("-o", "--out", required=True, help="per-pair CSV path")
    p.add_argument("--report", default=None, help="aggregate JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SpecError as e:
        print(f"schurkit: input error: {e}", file=sys.stderr)
        return 2
    except SchurkitError as e:
        print(f"schurkit: numeric failure: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("schurkit: numeric failure: out of memory; use a coarser --step or a smaller "
              "--grid", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
