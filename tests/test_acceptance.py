"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its worst measured slack and runtime."""

import json
import math
import time

import numpy as np
from scipy.interpolate import PchipInterpolator

from schurkit.cli import main
from schurkit.curves import (
    CurvatureProfile,
    Jump,
    check_convex_budget,
    constant_curvature,
    curvature_magnitude,
    reconstruct_plane,
    sinusoidal_curvature,
    total_turning,
)
from schurkit.minkowski import (
    boost_curve,
    lorentz_boost,
    reconstruct_timelike_2d,
    reconstruct_timelike_3d,
    reversed_chord_inequality,
    timelike_monotonicity,
)
from schurkit.numerics import StepControl, grid_step
from schurkit.schur import ComparisonPair
from schurkit.sphere import (
    auto_projection_config,
    closed_form_cross_norm,
    cone_project,
    curvature_dominance_check,
    geodesic_curvature_of,
    jump_angle_transform,
    project_pair,
    projected_arclength,
    reconstruct_spherical,
    rotate_spherical,
    spherical_schur_verify,
)
from conftest import random_rotation

from schurkit.curves import linear_curvature

FAST = StepControl(step_h=2e-3)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_frame_conservation():
    t0 = time.perf_counter()
    c = reconstruct_spherical(sinusoidal_curvature(0.5, 0.3), (), math.pi)
    drift = c.frame_drift()
    elapsed = time.perf_counter() - t0
    report(1, "frame-conservation", drift <= 1e-9 and elapsed < 1.0,
           f"drift={drift:.3e}, runtime={elapsed:.2f}s")


def test_criterion_02_roundtrip_curvature():
    k = sinusoidal_curvature(0.5, 0.3)
    worsts, times = [], []

    t0 = time.perf_counter()
    plane = reconstruct_plane(CurvatureProfile(math.pi, k))
    kp = curvature_magnitude(plane)
    worsts.append(float(np.max(np.abs(kp.values - np.asarray(k(kp.s_grid))))))
    times.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    sph = reconstruct_spherical(k, (), math.pi)
    ks = geodesic_curvature_of(sph)
    worsts.append(float(np.max(np.abs(ks.values - np.asarray(k(ks.s_grid))))))
    times.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    mink = reconstruct_timelike_2d(k, math.pi)
    worsts.append(float(np.max(np.abs(mink.curvature.values - np.asarray(k(mink.s))))))
    times.append(time.perf_counter() - t0)

    ok = max(worsts) < 2e-4 and max(times) < 1.0
    report(2, "roundtrip-curvature", ok,
           f"sup errors={['%.2e' % w for w in worsts]}, max runtime={max(times):.2f}s")


def test_criterion_03_schur_sweep(circle_pi, line_pi, helix_pi):
    t0 = time.perf_counter()
    anchors = np.linspace(0.0, math.pi, 10)
    worst_mono, worst_chord, all_pass = math.inf, math.inf, True
    for ct in (line_pi, helix_pi):
        pair = ComparisonPair(circle_pi, ct)
        for i, a in enumerate(anchors):
            for b in anchors[i + 1 :]:
                window = pair.window((a, b))
                mono, chord = pair.monotonicity(window), pair.chord(window)
                worst_mono = min(worst_mono, mono.min_slack)
                worst_chord = min(worst_chord, chord.chord_slack)
                all_pass &= mono.passed and chord.passed
    elapsed = time.perf_counter() - t0
    ok = all_pass and worst_mono >= -1e-6 and elapsed < 10.0
    report(3, "schur-sweep-10x10", ok,
           f"worst mono slack={worst_mono:.3e}, worst chord slack={worst_chord:.3e}, "
           f"runtime={elapsed:.2f}s")


def test_criterion_04_nested_and_expansion(circle_pi, line_pi, helix_pi):
    rng = np.random.default_rng(41)
    worst = math.inf
    for ct in (line_pi, helix_pi):
        pair = ComparisonPair(circle_pi, ct)
        for _ in range(50):
            vals = np.sort(rng.uniform(0.0, math.pi, size=4))
            a, ai, bi, b = (float(v) for v in vals)
            if bi - ai < 0.05 or b - a < 0.1:
                continue
            nested = pair.nested_chord(pair.window((a, b)), ai, bi)
            worst = min(worst, nested.slack)
        exp = pair.expansion(pair_samples=50, seed=17)
        worst = min(worst, exp.min_slack)
    report(4, "nested-and-expansion", worst >= -1e-6, f"worst slack={worst:.3e}")


def test_criterion_05_turning_budget():
    circle = check_convex_budget(CurvatureProfile(2 * math.pi, constant_curvature(1.0)))
    square_profile = CurvatureProfile(
        4.0, constant_curvature(0.0),
        tuple(Jump(x, math.pi / 2) for x in (0.5, 1.5, 2.5, 3.5)),
    )
    square_total = total_turning(square_profile)
    overturned = check_convex_budget(CurvatureProfile(3 * math.pi, constant_curvature(1.0)))
    ok = (
        circle.passed and abs(circle.slack) <= 1e-8
        and square_total == 2 * math.pi
        and not overturned.passed
    )
    report(5, "turning-budget", ok,
           f"circle slack={circle.slack:.2e}, square total={square_total!r}, "
           f"overturned rejected={not overturned.passed}")


def _random_spline(rng, length, lo, hi):
    knots = np.linspace(0.0, length, 6)
    vals = rng.uniform(lo, hi, size=6)
    interp = PchipInterpolator(knots, vals)
    return lambda s: np.asarray(interp(np.clip(s, 0.0, length)), dtype=float)


def _central4_first(values, h):
    """4th-order central first derivative (interior rows only)."""
    v = np.asarray(values, dtype=float)
    return (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)


def _central4_second(values, h):
    """4th-order central second derivative (interior rows only)."""
    v = np.asarray(values, dtype=float)
    return (-v[4:] + 16.0 * v[3:-1] - 30.0 * v[2:-2] + 16.0 * v[1:-3] - v[:-4]) / (
        12.0 * h * h
    )


def test_criterion_06_projected_dominance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    length = 1.5
    worst_dom, worst_rel = math.inf, 0.0
    for _ in range(20):
        kg = _random_spline(rng, length, 0.2, 2.0)
        eta = _random_spline(rng, length, -0.95, 0.95)
        kg_t = lambda s, kg=kg, eta=eta: eta(s) * kg(s)
        c = reconstruct_spherical(kg, (), length, control=FAST)
        ct = reconstruct_spherical(kg_t, (), length, control=FAST)
        cfg = auto_projection_config(c)
        pair = project_pair(c, ct, cfg)
        dom = curvature_dominance_check(pair)
        worst_dom = min(worst_dom, dom.min_dominance, dom.min_positivity)

        r = pair.R
        h = grid_step(r.s_grid)
        rp = _central4_first(r.values, h)
        rpp = _central4_second(r.values, h)
        d1 = _central4_first(pair.plane_curve.position, h)
        d2 = _central4_second(pair.plane_curve.position, h)
        cross_sq = np.einsum("ij,ij->i", np.cross(d1, d2), np.cross(d1, d2))
        inner = slice(2, -2)
        closed = closed_form_cross_norm(
            r.values[inner], rp, rpp, np.asarray(kg(r.s_grid[inner]))
        )
        rel = np.abs(closed - cross_sq) / np.abs(cross_sq)
        worst_rel = max(worst_rel, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    ok = worst_dom >= -1e-4 and worst_rel <= 1e-4 and elapsed < 30.0
    report(6, "projected-dominance", ok,
           f"worst dominance={worst_dom:.3e}, worst cross-norm rel err={worst_rel:.3e}, "
           f"runtime={elapsed:.1f}s over 20 fixtures")


def test_criterion_07_projected_arclength(sphere_polygon_pair):
    worst = 0.0
    fixtures = []

    lat = reconstruct_spherical(constant_curvature(1.0), (), 2.0)
    fixtures.append(lat)
    arm, _ = sphere_polygon_pair
    fixtures.append(arm)
    rng = np.random.default_rng(5)
    for _ in range(3):
        kg = _random_spline(rng, 1.5, 0.2, 2.0)
        fixtures.append(reconstruct_spherical(kg, (), 1.5))

    for c in fixtures:
        cfg = auto_projection_config(c)
        r, p = cone_project(c, cfg)
        tau = projected_arclength(r, [j.location for j in c.jumps])
        poly = float(np.sum(np.linalg.norm(np.diff(p.position, axis=0), axis=1)))
        worst = max(worst, abs(tau.values[-1] - poly))
    report(7, "projected-arclength", worst <= 1e-5, f"worst |tau(L)-polyline|={worst:.2e}")


def test_criterion_08_jump_transform():
    worst_formula = 0.0
    alphas = np.arange(0.0, math.pi + 1e-12, 1e-3)
    monotone = True
    c_axis = np.array([0.0, 0.0, 1.0])
    for rm in (-1.0, -0.3, 0.0, 0.5, 1.2):
        for rp in (-1.0, -0.3, 0.0, 0.5, 1.2):
            for r in (0.5, 1.0, 2.0):
                for alpha in np.linspace(0.0, math.pi, 13):
                    t_minus = np.array([1.0, 0.0, 0.0])
                    t_plus = np.array([math.cos(alpha), math.sin(alpha), 0.0])
                    vm = rm * c_axis + r * t_minus
                    vp = rp * c_axis + r * t_plus
                    direct = math.acos(float(np.clip(
                        vm @ vp / (np.linalg.norm(vm) * np.linalg.norm(vp)), -1, 1)))
                    worst_formula = max(
                        worst_formula, abs(jump_angle_transform(rm, rp, r, alpha) - direct)
                    )
                thetas = np.array([jump_angle_transform(rm, rp, r, a) for a in alphas])
                monotone &= bool(np.min(np.diff(thetas)) >= -1e-9)
    ok = worst_formula <= 1e-4 and monotone
    report(8, "jump-angle-transform", ok,
           f"worst formula err={worst_formula:.2e}, monotone in alpha={monotone}")


def test_criterion_09_spherical_end_to_end(sphere_polygon_pair, sphere_small_great):
    t0 = time.perf_counter()
    arm, arm_t = sphere_polygon_pair
    small, great = sphere_small_great

    v_arm = spherical_schur_verify(arm, arm_t)
    v_circ = spherical_schur_verify(small, great)
    worst = min(v_arm.conclusion_slack, v_circ.conclusion_slack)
    all_pass = v_arm.passed and v_circ.passed

    rng = np.random.default_rng(99)
    drift = 0.0
    for _ in range(10):
        rot = random_rotation(rng)
        v = spherical_schur_verify(rotate_spherical(arm, rot), rotate_spherical(arm_t, rot))
        drift = max(drift, abs(v.conclusion_slack - v_arm.conclusion_slack))
    elapsed = time.perf_counter() - t0
    ok = all_pass and worst >= -1e-6 and drift <= 1e-6 and elapsed < 10.0
    report(9, "spherical-end-to-end", ok,
           f"worst slack={worst:.3e}, rotation drift={drift:.2e}, runtime={elapsed:.1f}s")


def test_criterion_10_minkowski():
    c = reconstruct_timelike_2d(constant_curvature(1.0), 1.0)
    ct = reconstruct_timelike_3d(constant_curvature(0.5), linear_curvature(0.0, 1.0), 1.0)
    worst = math.inf
    for s_star in (0.0, 0.25, 0.5, 1.0):
        rep = timelike_monotonicity(c, ct, s_star)
        worst = min(worst, rep.min_slack)
        assert rep.census.all_passed
    chord = reversed_chord_inequality(c, ct)

    b2 = lorentz_boost(0.8, dim=2)
    b3 = lorentz_boost(0.8, (1.0, 0.0), dim=3)
    boosted = reversed_chord_inequality(boost_curve(c, b2), boost_curve(ct, b3))
    boosted_m = timelike_monotonicity(boost_curve(c, b2), boost_curve(ct, b3), 0.5)
    base_m = timelike_monotonicity(c, ct, 0.5)
    boost_drift = max(
        abs(boosted.slack - chord.slack),
        abs(boosted.cauchy_schwarz_slack - chord.cauchy_schwarz_slack),
        abs(boosted_m.min_slack - base_m.min_slack),
    )
    ok = (
        worst >= -1e-6
        and chord.slack >= -1e-6
        and chord.cauchy_schwarz_slack >= -1e-9
        and boost_drift <= 1e-6
    )
    report(10, "minkowski-comparison", ok,
           f"worst mono slack={worst:.3e}, chord slack={chord.slack:.3e}, "
           f"CS slack={chord.cauchy_schwarz_slack:.3e}, boost drift={boost_drift:.2e}")


def test_criterion_11_cli_contract(tmp_path):
    def spec(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)

    circle = spec("circle.json", {
        "geometry": "plane", "length": math.pi,
        "curvature": {"preset": "constant", "value": 1.0},
    })
    line = spec("line.json", {
        "geometry": "space3", "length": math.pi,
        "curvature": {"preset": "constant", "value": 0.0},
    })
    steep = spec("steep.json", {
        "geometry": "space3", "length": math.pi,
        "curvature": {"preset": "constant", "value": 2.0},
    })
    overturned = spec("overturned.json", {
        "geometry": "plane", "length": 3 * math.pi,
        "curvature": {"preset": "constant", "value": 1.0},
    })
    bad = tmp_path / "bad.json"
    bad.write_text('{"geometry": "plane", "unknown_field": 1}')

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["verify", "--theorem", "monotonicity", circle, line, "--step", "2e-3"]
    pass_code = main(argv + ["--report", str(r1)])
    main(argv + ["--report", str(r2)])
    deterministic = r1.read_bytes() == r2.read_bytes()

    violation_code = main([
        "verify", "--theorem", "monotonicity", circle, steep,
        "--step", "2e-3", "--report", str(tmp_path / "v.json"),
    ])
    violation_censused = not json.loads((tmp_path / "v.json").read_text())["conclusion"]["evaluated"]
    schema_code = main(["verify", "--theorem", "budget", str(bad)])
    conclusion_fail_code = main([
        "verify", "--theorem", "budget", overturned,
        "--step", "2e-3", "--report", str(tmp_path / "o.json"),
    ])

    ok = (
        deterministic
        and pass_code == 0
        and violation_code == 0 and violation_censused
        and schema_code == 2
        and conclusion_fail_code == 1
    )
    report(11, "cli-contract", ok,
           f"deterministic={deterministic}, exit codes: pass={pass_code}, "
           f"violation={violation_code} (censused={violation_censused}), "
           f"schema={schema_code}, conclusion-fail={conclusion_fail_code}")
