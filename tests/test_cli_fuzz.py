"""Exit-code fuzz: every command line, valid or not, leaves ``cli.main`` with 0, 1, 2 or 3.

Specs for all five geometries are generated valid and then optionally
corrupted in one field (a wrong type, a missing key, an unknown key, a
non-finite value, an out-of-range jump); flags are drawn around their valid
ranges. Everything runs in-process on coarse grids (``--step`` >= 0.01).
The ``MAX_ROWS`` boundary has its own tests in ``test_cli.py``.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from schurkit import cli

finite = st.floats(-1.0, 1.5, allow_nan=False)

curvatures = st.one_of(
    st.builds(lambda v: {"preset": "constant", "value": v}, st.floats(-0.3, 1.5)),
    st.builds(lambda a, b: {"preset": "linear", "intercept": a, "slope": b},
              st.floats(0.0, 1.0), st.floats(-0.3, 0.3)),
    st.builds(lambda a, b, w: {"preset": "sinusoidal", "offset": a, "amplitude": b,
                               "frequency": w},
              st.floats(0.0, 1.0), st.floats(0.0, 0.5), st.floats(0.0, 3.0)),
    st.builds(lambda ks: {"samples": [[0.5 * i, k] for i, k in enumerate(ks)]},
              st.lists(st.floats(0.0, 1.5), min_size=2, max_size=4)),
)


@st.composite
def valid_specs(draw, geometry, length):
    spec = {"geometry": geometry, "length": length, "curvature": draw(curvatures)}
    if geometry in ("plane", "space3", "sphere"):
        locs = sorted(draw(st.sets(st.floats(0.05, 0.95), max_size=2)))
        jumps = [[u * length, draw(st.floats(0.0, 1.5))] for u in locs]
        if geometry == "space3":
            jumps = [[s, a, draw(st.sampled_from([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))]
                     for s, a in jumps]
        if jumps:
            spec["jumps"] = jumps
    if geometry == "plane":
        spec["initial"] = {"point": [draw(finite), draw(finite)], "angle": draw(finite)}
        spec["convex"] = draw(st.booleans())
    elif geometry == "space3":
        spec["torsion"] = draw(curvatures)
    elif geometry == "sphere":
        spec["initial"] = {"position": [1.0, 0.0, draw(st.floats(0.0, 0.5))]}
    elif geometry == "minkowski2":
        spec["initial"] = {"rapidity": draw(finite)}
    else:
        spec["spin"] = draw(curvatures)
    return spec


@st.composite
def corrupted(draw, spec):
    """A copy of ``spec`` with one field broken."""
    kind = draw(st.sampled_from(["type", "missing", "unknown", "nonfinite", "jump"]))
    spec = json.loads(json.dumps(spec))
    if kind == "type":
        key = draw(st.sampled_from(sorted(spec)))
        spec[key] = draw(st.sampled_from(["x", [1.0], True, None, {"value": 1.0}, 2]))
    elif kind == "missing":
        del spec[draw(st.sampled_from(["geometry", "length", "curvature"]))]
    elif kind == "unknown":
        target = draw(st.sampled_from([spec, spec["curvature"]]))
        target["bogus"] = 1.0
    elif kind == "nonfinite":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e400]))
        if draw(st.booleans()):
            spec["length"] = value
        else:
            spec["curvature"] = {"preset": "constant", "value": value}
    else:
        length = spec["length"]
        spec["jumps"] = [draw(st.sampled_from([
            [length + 0.5, 0.3], [0.0, 0.3], [-1.0, 0.3], [0.5 * length, 4.0],
            [0.5 * length, -0.1], [0.5 * length], [0.5 * length, 0.3, [0.0, 0.0, 1.0]],
        ]))]
    return spec


# What one command line gets wrong, if anything: most lines break at most one thing,
# so that the valid ones reach the checks.
BREAKS = (None, None, None, "spec", "companion", "geometry", "step", "range", "s_star",
          "pairs", "grid", "theorem")


@st.composite
def command_lines(draw):
    """(command, primary spec, companion spec or None, flags)."""
    broken = draw(st.sampled_from(BREAKS))
    command = draw(st.sampled_from(["reconstruct", "project", "verify", "sweep"]))
    theorems = ("monotonicity", "chord") if command == "sweep" and broken != "theorem" else (
        cli.THEOREMS)
    theorem = draw(st.sampled_from(theorems))
    wanted = {"project": ("sphere",), "reconstruct": cli.GEOMETRIES}.get(
        command, cli._THEOREM_GEOMETRY[theorem])
    wanted_t = cli._TILDE_GEOMETRY.get(theorem, wanted)
    if broken == "geometry":
        wanted = wanted_t = cli.GEOMETRIES
    length = draw(st.floats(0.2, 1.5))
    spec = draw(valid_specs(draw(st.sampled_from(wanted)), length))
    spec_t = None
    if (command in ("verify", "sweep") and theorem != "budget"
            or command == "project" and draw(st.booleans())):
        spec_t = draw(valid_specs(draw(st.sampled_from(wanted_t)), length))
    if broken == "spec":
        spec = draw(corrupted(spec))
    elif broken == "companion" and spec_t is not None:
        spec_t = draw(corrupted(spec_t))

    step = draw(st.sampled_from(["0", "-0.01", "nan"] if broken == "step" else
                                ["0.01", "0.02", "0.05"]))
    flags = ["--step", step]
    if command in ("verify", "sweep"):
        flags += ["--theorem", theorem]
    where = st.floats(-0.2, 1.7) if broken in ("range", "s_star") else st.floats(0.0, length)
    text = st.sampled_from(["x", "1", "1:2:3", "nan:1", ":", "inf", ""])
    if command == "verify":
        pairs = draw(st.integers(-1, 0) if broken == "pairs" else st.integers(1, 5))
        flags.append(f"--pairs={pairs}")
        if broken == "range" or draw(st.booleans()):
            ends = sorted(draw(st.lists(where, min_size=2, max_size=2)))
            if broken == "range" and draw(st.booleans()):
                flags.append(f"--range={draw(text)}")
            else:
                flags.append(f"--range={ends[0]:.6g}:{ends[1]:.6g}")
        if broken == "s_star" or draw(st.booleans()):
            s_star = draw(text) if broken == "s_star" and draw(st.booleans()) else draw(where)
            flags.append(f"--s-star={s_star}")
    if command == "sweep":
        grid = draw(st.integers(-1, 1) if broken == "grid" else st.integers(2, 8))
        flags.append(f"--grid={grid}")
    return command, spec, spec_t, flags


def run(command, spec, spec_t, flags) -> tuple[int, str, list]:
    """Exit code, standard error and the warnings of one command line."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, payload in (("c.json", spec), ("ct.json", spec_t)):
            if payload is not None:
                paths.append(str(Path(tmp, name)))
                Path(paths[-1]).write_text(json.dumps(payload))
        argv = [command, paths[0]]
        if command == "project":
            argv += ["--companion", paths[1]] if len(paths) > 1 else []
        else:
            argv += paths[1:]
        if command in ("reconstruct", "project", "sweep"):
            argv += ["-o", str(Path(tmp, "out.csv"))]
        if command in ("verify", "sweep"):
            argv += ["--report", str(Path(tmp, "report.json"))]
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
              contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv + flags)
            except SystemExit as e:  # argparse's usage errors
                code = e.code
        return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(command_lines())
# two jumps one double apart: a segment too short for distinct RK4 steps (the RK4
# grid's GridError; a ValueError from a grid check once leaked here)
@example(("reconstruct", {"geometry": "plane", "length": 1.0,
                          "curvature": {"preset": "constant", "value": 1.0},
                          "jumps": [[0.050044957972271556, 1e-10], [0.05004495797227156, 0.0]]},
          None, ["--step", "0.01"]))
# a denormal torsion: secants of c~'s tangent overflowed the harmonic-mean weights of
# the monotone cubic that once interpolated N~, which warned on stderr
@example(("sweep", {"geometry": "plane", "length": 1.17345602169644,
                    "curvature": {"samples": [[0.0, 0.44658561943126074], [0.5, 0.5302482093635379]]},
                    "initial": {"point": [0.0, 1e-05], "angle": 1e-06}},
          {"geometry": "space3", "length": 1.17345602169644,
           "curvature": {"preset": "sinusoidal", "offset": 0.13624775735776765,
                         "amplitude": 0.16420907663520437, "frequency": 1.0777403359765882},
           "jumps": [[0.05867280108482201, 0.9452487723964751, [0.0, 1.0, 0.0]],
                     [0.970517777975182, 0.0, [0.0, 1.0, 0.0]]],
           "torsion": {"preset": "constant", "value": 2.225073858507e-311}},
          ["--step", "0.01", "--theorem", "monotonicity", "--grid=8"]))
def test_every_command_line_exits_with_a_documented_code(case):
    code, err, caught = run(*case)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and caught == []
