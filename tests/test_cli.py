import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import schurkit
import schurkit.cli as cli
from schurkit.cli import main

STEP = ["--step", "2e-3"]  # coarser grid keeps the CLI suite quick


def write_spec(path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


@pytest.fixture
def specs(tmp_path):
    def make(name, payload):
        return write_spec(tmp_path / name, payload)

    return {
        "circle": make("circle.json", {
            "geometry": "plane",
            "length": math.pi,
            "curvature": {"preset": "constant", "value": 1.0},
        }),
        "square": make("square.json", {
            "geometry": "plane",
            "length": 4.0,
            "curvature": {"preset": "constant", "value": 0.0},
            "jumps": [[0.5, math.pi / 2], [1.5, math.pi / 2],
                      [2.5, math.pi / 2], [3.5, math.pi / 2]],
        }),
        "line": make("line.json", {
            "geometry": "space3",
            "length": math.pi,
            "curvature": {"preset": "constant", "value": 0.0},
        }),
        "helix": make("helix.json", {
            "geometry": "space3",
            "length": math.pi,
            "curvature": {"preset": "constant", "value": 0.5},
            "torsion": {"preset": "constant", "value": 0.5},
        }),
        "steep_helix": make("steep_helix.json", {
            "geometry": "space3",
            "length": math.pi,
            "curvature": {"preset": "constant", "value": 2.0},
            "torsion": {"preset": "constant", "value": 0.5},
        }),
        "sphere_small": make("sphere_small.json", {
            "geometry": "sphere",
            "length": math.pi / 2,
            "curvature": {"preset": "constant", "value": 1.0},
        }),
        "sphere_great": make("sphere_great.json", {
            "geometry": "sphere",
            "length": math.pi / 2,
            "curvature": {"preset": "constant", "value": 0.0},
        }),
        "mink_bent": make("mink_bent.json", {
            "geometry": "minkowski2",
            "length": 1.0,
            "curvature": {"preset": "constant", "value": 1.0},
        }),
        "mink_spun": make("mink_spun.json", {
            "geometry": "minkowski3",
            "length": 1.0,
            "curvature": {"preset": "constant", "value": 0.5},
            "spin": {"preset": "linear", "intercept": 0.0, "slope": 1.0},
        }),
        "overturned": make("overturned.json", {
            "geometry": "plane",
            "length": 3.0 * math.pi,
            "curvature": {"preset": "constant", "value": 1.0},
        }),
    }


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def test_reconstruct_circle_closes(tmp_path, specs):
    out = tmp_path / "circle.csv"
    spec = write_spec(tmp_path / "full_circle.json", {
        "geometry": "plane",
        "length": 2.0 * math.pi,
        "curvature": {"preset": "constant", "value": 1.0},
    })
    assert main(["reconstruct", spec, "-o", str(out), *STEP]) == 0
    header, rows = read_csv(out)
    assert header[:3] == ["s", "x", "y"]
    first = np.array([float(v) for v in rows[0][1:3]])
    last = np.array([float(v) for v in rows[-1][1:3]])
    assert np.linalg.norm(last - first) <= 1e-5


def test_reconstruct_square_marks_jumps(tmp_path, specs):
    out = tmp_path / "square.csv"
    assert main(["reconstruct", specs["square"], "-o", str(out), *STEP]) == 0
    header, rows = read_csv(out)
    flags = [r[header.index("jump")] for r in rows]
    assert flags.count("1") == 4
    # flagged rows duplicate the next row's s and position
    idx = [i for i, f in enumerate(flags) if f == "1"]
    for i in idx:
        assert rows[i][0] == rows[i + 1][0]
        assert rows[i][1:3] == rows[i + 1][1:3]


def test_reconstruct_helix_curvature_column(tmp_path, specs):
    out = tmp_path / "helix.csv"
    assert main(["reconstruct", specs["helix"], "-o", str(out), *STEP]) == 0
    header, rows = read_csv(out)
    col = header.index("curvature")
    vals = np.array([float(r[col]) for r in rows])
    assert np.max(np.abs(vals - 0.5)) < 1e-4


def test_reconstruct_minkowski(tmp_path, specs):
    out = tmp_path / "mink.csv"
    assert main(["reconstruct", specs["mink_bent"], "-o", str(out), *STEP]) == 0
    header, _ = read_csv(out)
    assert header[:3] == ["s", "t", "x"]


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------

def test_project_emits_table(tmp_path, specs):
    out = tmp_path / "proj.csv"
    assert main(["project", specs["sphere_small"], "-o", str(out), *STEP]) == 0
    header, rows = read_csv(out)
    assert header[:3] == ["s", "R", "tau"]
    taus = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(taus) > 0)


def test_project_with_companion(tmp_path, specs):
    out = tmp_path / "proj2.csv"
    code = main([
        "project", specs["sphere_small"], "--companion", specs["sphere_great"],
        "-o", str(out), *STEP,
    ])
    assert code == 0
    header, _ = read_csv(out)
    assert "k_companion" in header


def test_project_rejects_plane_spec(tmp_path, specs):
    assert main(["project", specs["circle"], "-o", str(tmp_path / "x.csv"), *STEP]) == 2


# ---------------------------------------------------------------------------
# verify: exit-code contract
# ---------------------------------------------------------------------------

def test_verify_monotonicity_passes(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "monotonicity", specs["circle"], specs["line"],
        "--report", str(rep), *STEP,
    ])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["conclusion"]["passed"] is True
    assert all(h["passed"] for h in data["hypotheses"])
    mono = data["conclusion"]["checks"][0]
    assert mono["slack"] >= -1e-6


def test_verify_hypothesis_violation_censused(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "monotonicity", specs["circle"], specs["steep_helix"],
        "--report", str(rep), *STEP,
    ])
    assert code == 0  # violated hypotheses are censused, not an error
    data = json.loads(rep.read_text())
    assert data["conclusion"]["evaluated"] is False
    names = [h["name"] for h in data["hypotheses"] if not h["passed"]]
    assert "curvature_dominance" in names


def test_verify_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"geometry": "plane", "length": 1, "curvature": {"preset": "constant"}, "bogus": 1}')
    assert main(["verify", "--theorem", "budget", str(bad)]) == 2


def test_verify_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--theorem", "budget", str(bad)]) == 2


CIRCLE = {"geometry": "plane", "length": math.pi, "curvature": {"preset": "constant", "value": 1.0}}


@pytest.mark.parametrize(
    "command, patch, flags",
    [
        ("verify", {}, ["--step", "0"]),
        ("verify", {}, ["--step", "nan"]),
        ("verify", {}, ["--tol", "-1"]),
        ("reconstruct", {}, ["--step", "inf"]),
        ("project", {}, ["--tol", "nan"]),
        ("sweep", {}, ["--step", "-0.001"]),
        ("verify", {"length": math.inf}, []),
        ("verify", {"curvature": {"preset": "constant", "value": math.nan}}, []),
        ("verify", {"curvature": {"samples": [[0.0, 1.0]]}}, []),
        ("verify", {"curvature": {"samples": [[0.0, 1.0], [1.0, math.nan], [4.0, 1.0]]}}, []),
        ("verify", {"curvature": {"samples": [[0.0, 1.0], [0.0, 1.0]]}}, []),
        ("global", {}, ["--s-star", "abc"]),
        ("global", {}, ["--s-star", "nan"]),
        ("global", {}, ["--s-star", "99"]),
        ("spherical", {"geometry": "sphere"}, ["--plane", "nan,0,1:1"]),
        ("project", {"geometry": "sphere"}, ["--plane", "1,0,0:inf"]),
        ("chord", {"jumps": [["x", 0.1]]}, []),
        ("chord", {"jumps": [[None, 0.1]]}, []),
        ("verify", {}, ["--step", "1e-12"]),  # row budget: refused before allocation
    ],
)
def test_invalid_input_exit_2(tmp_path, capsys, command, patch, flags):
    spec = write_spec(tmp_path / "c.json", {**CIRCLE, **patch})
    out = str(tmp_path / "out.csv")
    argv = {
        "verify": ["verify", "--theorem", "budget", spec],
        "reconstruct": ["reconstruct", spec, "-o", out],
        "project": ["project", spec, "-o", out],
        "sweep": ["sweep", "--theorem", "chord", spec, spec, "-o", out],
        "global": ["verify", "--theorem", "global-monotonicity", spec, spec],
        "spherical": ["verify", "--theorem", "spherical", spec, spec],
        "chord": ["verify", "--theorem", "chord", spec, spec],
    }[command]
    assert main([*argv, *flags]) == 2
    assert "schurkit: input error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["spec-dir", "spec-not-utf8", "spec-too-deep", "report-no-dir",
                                  "csv-no-dir", "seed-not-int"])
def test_io_and_environment_errors_exit_2(tmp_path, capsys, monkeypatch, specs, case):
    argv = ["verify", "--theorem", "chord", specs["circle"], specs["helix"], "--pairs", "5", *STEP]
    if case == "spec-dir":
        argv[3] = str(tmp_path)
    elif case == "spec-not-utf8":
        latin = tmp_path / "latin1.json"
        latin.write_bytes('{"geometry": "plane", "name": "\u00e9"}'.encode("latin-1"))
        argv[3] = str(latin)
    elif case == "spec-too-deep":
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv[3] = str(deep)
    elif case == "report-no-dir":
        argv += ["--report", str(tmp_path / "nodir" / "r.json")]
    elif case == "csv-no-dir":
        argv = ["reconstruct", specs["circle"], "-o", str(tmp_path / "nodir" / "o.csv"), *STEP]
    else:
        monkeypatch.setenv("SCHURKIT_SEED", "abc")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "schurkit: input error" in err
    assert "Traceback" not in err


def test_verify_pairs_below_one_exit_2(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "chord", specs["circle"], specs["helix"],
        "--report", str(rep), "--pairs", "0", *STEP,
    ])
    assert code == 2
    assert not rep.exists()


def test_verify_geometry_mismatch_exit_2(specs):
    assert main(["verify", "--theorem", "spherical", specs["circle"], specs["line"]]) == 2


def test_verify_budget_overturned_exit_1(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main(["verify", "--theorem", "budget", specs["overturned"], "--report", str(rep), *STEP])
    assert code == 1
    data = json.loads(rep.read_text())
    assert data["conclusion"]["passed"] is False
    assert data["conclusion"]["checks"][0]["slack"] < -math.pi + 1e-6


def test_verify_budget_non_convex_is_censused(tmp_path):
    spec = write_spec(tmp_path / "c.json", {**CIRCLE, "convex": False})
    rep = tmp_path / "rep.json"
    assert main(["verify", "--theorem", "budget", spec, "--report", str(rep), *STEP]) == 0
    data = json.loads(rep.read_text())
    assert data["conclusion"]["evaluated"] is False
    assert [h["name"] for h in data["hypotheses"] if not h["passed"]] == ["convex_flag"]


def test_verify_budget_square_exact(tmp_path, specs):
    rep = tmp_path / "rep.json"
    assert main(["verify", "--theorem", "budget", specs["square"], "--report", str(rep), *STEP]) == 0
    data = json.loads(rep.read_text())
    assert data["conclusion"]["checks"][0]["slack"] == 0.0


def test_verify_chord_includes_expansion(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "chord", specs["circle"], specs["helix"],
        "--report", str(rep), "--pairs", "20", *STEP,
    ])
    assert code == 0
    data = json.loads(rep.read_text())
    names = [c["name"] for c in data["conclusion"]["checks"]]
    assert {"chord", "nested_chord", "expansion_bound"} <= set(names)


def test_verify_global_monotonicity_pivot_flag(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "global-monotonicity", specs["circle"], specs["line"],
        "--s-star", "0.8", "--report", str(rep), *STEP,
    ])
    assert code == 0


def test_verify_spherical(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "spherical", specs["sphere_small"], specs["sphere_great"],
        "--report", str(rep), *STEP,
    ])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["config"]["plane"]["auto"] is True
    by_name = {c["name"]: c for c in data["conclusion"]["checks"]}
    assert by_name["spherical_chord"]["slack"] >= -1e-6


def test_verify_minkowski(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "minkowski", specs["mink_bent"], specs["mink_spun"],
        "--s-star", "0.5", "--report", str(rep), *STEP,
    ])
    assert code == 0
    data = json.loads(rep.read_text())
    by_name = {c["name"]: c for c in data["conclusion"]["checks"]}
    assert by_name["reversed_chord"]["slack"] >= -1e-6
    assert by_name["reversed_cauchy_schwarz"]["slack"] >= -1e-9


def test_verify_range_flag(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "monotonicity", specs["circle"], specs["helix"],
        "--range", "0.5:2.5", "--report", str(rep), *STEP,
    ])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["config"]["range"] == [0.5, 2.5]


def test_verify_bad_range_exit_2(specs):
    assert main([
        "verify", "--theorem", "monotonicity", specs["circle"], specs["helix"],
        "--range", "2.5:0.5",
    ]) == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_circle_vs_line(tmp_path, specs):
    out = tmp_path / "sweep.csv"
    rep = tmp_path / "agg.json"
    code = main([
        "sweep", "--theorem", "monotonicity", specs["circle"], specs["line"],
        "--grid", "6", "-o", str(out), "--report", str(rep), *STEP,
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert len(rows) == 15  # 6 choose 2 ordered pairs
    passed_col = header.index("passed")
    assert all(r[passed_col] == "1" for r in rows)
    data = json.loads(rep.read_text())
    assert data["conclusion"]["passed"] is True


def test_sweep_takes_census_once(tmp_path, specs, monkeypatch):
    import schurkit.schur

    calls = []
    census = schurkit.schur.hypothesis_census

    def counting(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(schurkit.schur, "hypothesis_census", counting)
    code = main([
        "sweep", "--theorem", "chord", specs["circle"], specs["helix"],
        "--grid", "6", "-o", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"), *STEP,
    ])
    assert code == 0
    assert len(calls) == 1  # one census per pair, not one per window


def test_sweep_rows_match_independent_checks(tmp_path):
    """Each sweep row equals a separate pair's monotonicity and chord on its window."""
    from schurkit import (
        ComparisonPair, CurvatureProfile, Jump, StepControl, constant_curvature,
        reconstruct_plane, reconstruct_space_profile,
    )

    L = math.pi
    spec_c = write_spec(tmp_path / "c.json", {
        "geometry": "plane", "length": L,
        "curvature": {"preset": "constant", "value": 0.4},
        "jumps": [[1.0, 0.6], [2.2, 0.5]],
    })
    spec_t = write_spec(tmp_path / "t.json", {
        "geometry": "space3", "length": L,
        "curvature": {"preset": "constant", "value": 0.2},
        "torsion": {"preset": "constant", "value": 0.3},
        "jumps": [[1.0, 0.3, [0.0, 0.0, 1.0]], [2.2, 0.2, [0.0, 1.0, 0.0]]],
    })
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--theorem", "chord", spec_c, spec_t, "--grid", "9", "-o", str(out), *STEP])
    assert code == 0

    control = StepControl(step_h=2e-3)
    c = reconstruct_plane(
        CurvatureProfile(L, constant_curvature(0.4), (Jump(1.0, 0.6), Jump(2.2, 0.5))),
        control=control,
    )
    ct = reconstruct_space_profile(
        CurvatureProfile(
            L, constant_curvature(0.2),
            (Jump(1.0, 0.3, (0.0, 0.0, 1.0)), Jump(2.2, 0.2, (0.0, 1.0, 0.0))), convex=False,
        ),
        constant_curvature(0.3), control=control,
    )
    header, rows = read_csv(out)
    assert len(rows) == 36
    kinds = set()
    for row in rows:
        s1, s2 = float(row[0]), float(row[1])
        pair = ComparisonPair(c, ct)
        window = pair.window((s1, s2))
        mono, chord = pair.monotonicity(window), pair.chord(window)
        expected = [
            s1, s2, mono.s_star, str(int(mono.jump_interior)), mono.min_slack,
            chord.plane_chord, chord.space_chord, chord.chord_slack, chord.bound_slack,
            str(int(mono.conclusion_passed and chord.passed)),
        ]
        assert row == [v if isinstance(v, str) else f"{v:.17g}" for v in expected]
        kinds.add("jump" if mono.jump_interior else
                  "grid" if np.any(c.s == mono.s_star) else "off-grid")
    assert {"jump", "off-grid"} <= kinds


def test_sweep_needs_windowed_theorem(tmp_path, specs):
    assert main([
        "sweep", "--theorem", "spherical", specs["sphere_small"], specs["sphere_great"],
        "--grid", "4", "-o", str(tmp_path / "x.csv"),
    ]) == 2


def test_sweep_grid_over_window_budget_exit_2(tmp_path, specs, monkeypatch, capsys):
    class Built(Exception):
        pass

    def build_pair(*args):  # the first allocation a sweep makes
        raise Built

    monkeypatch.setattr(cli, "_build_pair", build_pair)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--theorem", "chord", specs["circle"], specs["helix"], "-o", str(out)]
    assert main([*argv, "--grid", "10000000000000"]) == 2
    assert "budget" in capsys.readouterr().err
    assert not out.exists()
    n = 4472  # the largest grid whose n*(n-1)/2 windows fit the budget
    assert n * (n - 1) // 2 <= cli.MAX_ROWS < (n + 1) * n // 2
    assert main([*argv, "--grid", str(n + 1)]) == 2
    with pytest.raises(Built):
        main([*argv, "--grid", str(n)])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_reports_are_byte_identical(tmp_path, specs):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--theorem", "chord", specs["circle"], specs["helix"], *STEP]
    assert main(argv + ["--report", str(r1)]) == 0
    assert main(argv + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_sweep_outputs_byte_identical(tmp_path, specs):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        rep = tmp_path / f"{name}.json"
        main([
            "sweep", "--theorem", "monotonicity", specs["circle"], specs["line"],
            "--grid", "4", "-o", str(out), "--report", str(rep), *STEP,
        ])
        outs.append((out.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


def test_module_entry_point(tmp_path, specs):
    rep = tmp_path / "rep.json"
    proc = subprocess.run(
        [sys.executable, "-m", "schurkit", "verify", "--theorem", "budget",
         specs["circle"], "--report", str(rep), *STEP],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert json.loads(rep.read_text())["check"] == "budget"


def test_out_of_memory_exits_3(tmp_path, specs, monkeypatch, capsys):
    def build_pair(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "_build_pair", build_pair)
    argv = ["verify", "--theorem", "chord", specs["circle"], specs["helix"],
            "--report", str(tmp_path / "r.json"), *STEP]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("schurkit: numeric failure: out of memory")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_main_builds_the_parser_once(tmp_path, specs, capsys):
    from schurkit.cli import build_parser

    assert build_parser() is build_parser()
    out, rep = tmp_path / "c.csv", tmp_path / "rep.json"
    assert main(["reconstruct", specs["circle"], "-o", str(out), *STEP]) == 0
    assert main(["verify", "--theorem", "budget", specs["circle"], "--report", str(rep), *STEP]) == 0
    assert out.read_text().startswith("s,x,y")
    assert json.loads(rep.read_text())["check"] == "budget"
    for argv, code in ((["--version"], 0), (["verify", specs["circle"]], 2)):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
    captured = capsys.readouterr()
    assert captured.out == f"schurkit {schurkit.__version__}\n"
    assert "the following arguments are required: --theorem" in captured.err
    assert main(["sweep", "--theorem", "chord", specs["circle"], specs["line"], "--grid", "3",
                 "-o", str(tmp_path / "s.csv"), *STEP]) == 0


def test_verify_without_smooth_samples_is_not_verified(tmp_path, specs, monkeypatch):
    import schurkit.schur
    from schurkit.numerics import SampledFunction

    measure = schurkit.schur.curvature_magnitude

    def blind(curve):
        k = measure(curve)
        return SampledFunction(k.s_grid, np.full(len(k), np.nan))

    monkeypatch.setattr(schurkit.schur, "curvature_magnitude", blind)
    rep = tmp_path / "rep.json"
    code = main(["verify", "--theorem", "chord", specs["circle"], specs["line"],
                 "--report", str(rep), *STEP])
    assert code == 0
    data = json.loads(rep.read_text())
    dominance = next(h for h in data["hypotheses"] if h["name"] == "curvature_dominance")
    assert dominance["passed"] is None and dominance["note"] == "no smooth samples"
    assert data["conclusion"] == {"evaluated": False, "checks": [], "passed": None}
    assert data["notes"] == ["hypotheses not verified; conclusion not evaluated"]


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, schurkit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.dirname(os.path.dirname(schurkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chord_verify_leaves_numpy_random_unloaded(tmp_path, specs):
    argv = ["verify", "--theorem", "chord", specs["circle"], specs["helix"],
            "--report", str(tmp_path / "rep.json"), "--pairs", "10", *STEP]
    code = (
        "import sys; from schurkit.cli import main; "
        f"code = main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    src = os.path.dirname(os.path.dirname(schurkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_write_csv_matches_row_format_across_chunks(tmp_path, monkeypatch):
    import schurkit.cli as cli

    monkeypatch.setattr(cli, "CSV_CHUNK", 3)
    a = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1.0 / 3.0, 1e-300, 2.0])
    b = a[::-1].copy()
    flags = [str(i % 2) for i in range(len(a))]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), ["a", "b", "flag"], [a, b, flags])
    expected = "a,b,flag\n" + "".join(
        f"{x:.17g},{y:.17g},{f}\n" for x, y, f in zip(a.tolist(), b.tolist(), flags)
    )
    assert path.read_text() == expected


def _write_and_reference(path, columns):
    """The bytes ``write_csv`` writes for ``columns`` and the per-row ``%.17g`` text."""
    header = [f"c{j}" for j in range(len(columns))]
    cli.write_csv(str(path), header, columns)
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    return path.read_bytes(), (",".join(header) + "\n" + "".join(fmt % r for r in rows)).encode()


# Doubles next to each %.17g layout change: powers of ten and their neighbours
# (decimal exponents -7..17, fixed and exponent notation), an exact 18-digit
# tie, the extremes, and doubles below a power of ten whose 17-digit rounding
# carries into the next decade (all outside the array formatter's range).
G17_BOUNDARY = sorted({
    v
    for m in range(-7, 18)
    for p in (float(f"1e{m}"),)
    for v in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf),
              math.nextafter(math.nextafter(p, 0.0), 0.0))
} | {2.0**50 + 0.25, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
     1e-14, 1e-70, 1e-73, 1e98, 1e129, 0.1, 1.0 / 3.0, 0.5, 123456789012345680.0})


def test_write_csv_boundary_table(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_CHUNK", 7)
    x = np.array(G17_BOUNDARY)
    got, want = _write_and_reference(tmp_path / "b.csv", [x, -x, x[::-1].copy()])
    assert got == want


def test_write_csv_random_decades(tmp_path):
    rng = np.random.default_rng(2024)
    n = 100_000
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 18.0, n)
    x[::5] = rng.integers(-10**6, 10**6, x[::5].size) / 64.0  # short decimals, trailing zeros
    x[::7] = np.ldexp(0.5 + rng.random(x[::7].size) / 2, rng.integers(-1074, 1024, x[::7].size))
    got, want = _write_and_reference(tmp_path / "r.csv", [x])
    assert got == want


@given(st.integers(1, 3).flatmap(lambda m: st.lists(
    st.lists(st.one_of(st.floats(), st.floats(1e-7, 1e17), st.floats(-1e17, -1e-7)),
             min_size=m, max_size=m),
    min_size=1, max_size=12)))
def test_write_csv_matches_percent_g17_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("g17") / "p.csv"
    with mock.patch.object(cli, "CSV_CHUNK", 5):
        got, want = _write_and_reference(path, [np.array(c) for c in zip(*rows)])
    assert got == want


def test_verify_seed_env_echoed(tmp_path, specs, monkeypatch):
    monkeypatch.setenv("SCHURKIT_SEED", "7")
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "chord", specs["circle"], specs["helix"],
        "--report", str(rep), "--pairs", "10", *STEP,
    ])
    assert code == 0
    assert json.loads(rep.read_text())["config"]["seed"] == 7


def test_verify_plane_vs_plane_identical(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "monotonicity", specs["circle"], specs["circle"],
        "--report", str(rep), *STEP,
    ])
    assert code == 0
    data = json.loads(rep.read_text())
    mono = data["conclusion"]["checks"][0]
    assert abs(mono["slack"]) < 1e-9  # identical curves: exact equality


def test_verify_minkowski_plane_pair(tmp_path, specs):
    flat = write_spec(tmp_path / "mink_flat.json", {
        "geometry": "minkowski2",
        "length": 1.0,
        "curvature": {"preset": "constant", "value": 0.5},
    })
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "minkowski", specs["mink_bent"], flat,
        "--report", str(rep), *STEP,
    ])
    assert code == 0


def test_verify_spherical_explicit_plane(tmp_path, specs):
    rep = tmp_path / "rep.json"
    code = main([
        "verify", "--theorem", "spherical", specs["sphere_small"], specs["sphere_great"],
        "--plane", "0.6,0.0,0.8:1.0", "--report", str(rep), *STEP,
    ])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["config"]["plane"]["auto"] is False


def test_verify_bad_plane_flag_exit_2(specs):
    code = main([
        "verify", "--theorem", "spherical", specs["sphere_small"], specs["sphere_great"],
        "--plane", "nonsense",
    ])
    assert code == 2


def test_tabulated_curvature_spec(tmp_path):
    spec = write_spec(tmp_path / "tab.json", {
        "geometry": "plane",
        "length": 2.0,
        "curvature": {"samples": [[0.0, 1.0], [1.0, 0.5], [2.0, 1.0]]},
    })
    out = tmp_path / "tab.csv"
    assert main(["reconstruct", spec, "-o", str(out), *STEP]) == 0
    header, rows = read_csv(out)
    col = header.index("curvature")
    mid = min(rows, key=lambda r: abs(float(r[0]) - 1.0))
    assert abs(float(mid[col]) - 0.5) < 1e-3


def test_reconstruct_sphere_table(tmp_path, specs):
    out = tmp_path / "sphere.csv"
    assert main(["reconstruct", specs["sphere_small"], "-o", str(out), *STEP]) == 0
    header, rows = read_csv(out)
    assert header[:4] == ["s", "x", "y", "z"]
    pos = np.array([[float(v) for v in r[1:4]] for r in rows])
    assert np.max(np.abs(np.linalg.norm(pos, axis=1) - 1.0)) < 1e-9
