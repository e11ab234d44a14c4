"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces each public function at the module attribute through
which schurkit looks it up (``schurkit.cli.reconstruct_plane``,
``schurkit.sphere.rk4_integrate``, ...) with a wrapper that records a span
``[name, start, end, parent, job]`` in memory. Nothing inside the package
changes; ``restore()`` puts the originals back. A name that no longer
exists is recorded as absent and its layer reports zero work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections import Counter

# lookup name -> layer. Several lookup names feed one layer when the same
# function is imported into more than one module.
LAYERS = {
    "schurkit.cli.main": "cli.job",
    "schurkit.cli.build_curve": "cli.build",
    "schurkit.cli.write_csv": "cli.write",
    "schurkit.cli.write_report": "cli.write",
    "schurkit.curves.rk4_integrate": "numerics.rk4",
    "schurkit.sphere.rk4_integrate": "numerics.rk4",
    "schurkit.minkowski.rk4_integrate": "numerics.rk4",
    "schurkit.schur.bisect_monotone": "numerics.bisect",
    "schurkit.cli.reconstruct_plane": "curves.reconstruct",
    "schurkit.cli.reconstruct_space_profile": "curves.reconstruct",
    "schurkit.cli.curvature_magnitude": "curves.measure",
    "schurkit.schur.curvature_magnitude": "curves.measure",
    "schurkit.cli.reconstruct_spherical": "sphere.reconstruct",
    "schurkit.cli.project_pair": "sphere.project",
    "schurkit.sphere.project_pair": "sphere.project",
    "schurkit.sphere.reparametrize_projected_pair": "sphere.reparam",
    "schurkit.cli.spherical_schur_verify": "sphere.verify",
    "schurkit.cli.reconstruct_timelike_2d": "minkowski.reconstruct",
    "schurkit.cli.reconstruct_timelike_3d": "minkowski.reconstruct",
    "schurkit.cli.timelike_monotonicity": "minkowski.check",
    "schurkit.cli.reversed_chord_inequality": "minkowski.check",
    "schurkit.cli.monotonicity_profile": "schur.window",
    "schurkit.cli.full_range_monotonicity": "schur.window",
    "schurkit.cli.chord_inequality": "schur.window",
    "schurkit.cli.nested_chord_inequality": "schur.window",
    "schurkit.sphere.monotonicity_profile": "schur.window",
    "schurkit.sphere.chord_inequality": "schur.window",
    "schurkit.schur.hypothesis_census": "schur.census",
    "schurkit.schur.find_s_star": "schur.s_star",
    "schurkit.cli.expansion_module_check": "schur.expansion",
    "schurkit.schur.PchipInterpolator": "scipy.pchip",
    "schurkit.sphere.PchipInterpolator": "scipy.pchip",
}

# spans that evaluate one comparison window (chord spans ride along in busy time)
WINDOW_NAMES = {
    "schurkit.cli.monotonicity_profile",
    "schurkit.cli.full_range_monotonicity",
    "schurkit.sphere.monotonicity_profile",
}

FAILURE_CAUSES = ("exit_code", "exception", "verdict", "output", "nondeterministic")

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("setup.import_schurkit_s", "s"),
    ("setup.import_scipy_s", "s"),
    ("numerics.rk4_steps", "count"),
    ("numerics.rk4_busy_s", "s"),
    ("numerics.bisect_evals", "count"),
    ("curves.rows", "count"),
    ("curves.reconstruct_busy_s", "s"),
    ("curves.measure_calls", "count"),
    ("curves.measure_busy_s", "s"),
    ("sphere.reconstruct_busy_s", "s"),
    ("sphere.project_busy_s", "s"),
    ("sphere.reparam_busy_s", "s"),
    ("sphere.verify_self_s", "s"),
    ("minkowski.reconstruct_busy_s", "s"),
    ("minkowski.check_busy_s", "s"),
    ("schur.windows", "count"),
    ("schur.window_busy_s", "s"),
    ("schur.census_calls", "count"),
    ("schur.census_busy_s", "s"),
    ("schur.census_per_pair", "ratio"),
    ("schur.s_star_calls", "count"),
    ("schur.s_star_busy_s", "s"),
    ("schur.s_star_per_window", "ratio"),
    ("schur.expansion_pairs", "count"),
    ("schur.expansion_busy_s", "s"),
    ("scipy.pchip_builds", "count"),
    ("scipy.pchip_busy_s", "s"),
    ("cli.build_self_s", "s"),
    ("cli.write_busy_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.failed_jobs", "count"),
    *((f"cli.failed_jobs.{cause}", "count") for cause in FAILURE_CAUSES),
    ("trace.job_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.reconstruct_share", "ratio"),
    ("trace.schur_share", "ratio"),
    ("trace.write_share", "ratio"),
]


class Tracer:
    """Records spans and counts around schurkit's public functions."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.census_pairs: set = set()
        self.job = None
        self.absent: list[str] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        hooks = {
            "numerics.rk4": self._count_rk4_rows,
            "curves.reconstruct": self._count_curve_rows,
            "schur.expansion": self._count_expansion_pairs,
            "cli.write": self._count_bytes,
            "schur.census": self._note_census_pair,
        }
        for name, layer in LAYERS.items():
            module_name, attr = name.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            adapt = self._count_bisect_evals if layer == "numerics.bisect" else None
            setattr(module, attr, self._wrap(name, original, hooks.get(layer), adapt))
            self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, original, on_result, adapt):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if adapt is not None:
                args = adapt(args)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.job]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer.stack.pop()
            if on_result is not None:
                # a changed return type loses the count, not the run
                with contextlib.suppress(AttributeError, TypeError, IndexError):
                    on_result(args, kwargs, result)
            return result

        return traced

    # -- counters at the wrapped boundaries ---------------------------------

    def _count_rk4_rows(self, args, kwargs, result):
        self.counts["numerics.rk4_steps"] += len(result.s_grid)

    def _count_curve_rows(self, args, kwargs, result):
        self.counts["curves.rows"] += len(result.s)

    def _count_expansion_pairs(self, args, kwargs, result):
        self.counts["schur.expansion_pairs"] += int(result.n_pairs)

    def _count_bytes(self, args, kwargs, result):
        # write_csv(path, header, rows) / write_report(report, path)
        path = args[0] if isinstance(args[0], (str, os.PathLike)) else (
            args[1] if len(args) > 1 else kwargs.get("path"))
        if path and os.path.exists(path):
            self.counts["cli.bytes_written"] += os.path.getsize(path)

    def _note_census_pair(self, args, kwargs, result):
        self.census_pairs.add((self.job, id(args[0]), id(args[1])))

    def _count_bisect_evals(self, args):
        g, counts = args[0], self.counts

        def counted(x):
            counts["numerics.bisect_evals"] += 1
            return g(x)

        return (counted, *args[1:])

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer busy/self times and counts over every recorded span."""
        spans = self.spans
        layer = [LAYERS[s[0]] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield p
                p = spans[p][3]

        busy, self_time, calls = Counter(), Counter(), Counter()
        for i in range(len(spans)):
            calls[layer[i]] += 1
            self_time[layer[i]] += dur[i] - child[i]
            if all(layer[a] != layer[i] for a in ancestors(i)):
                busy[layer[i]] += dur[i]
        windows = sum(1 for s in spans if s[0] in WINDOW_NAMES)
        s_star_in_windows = sum(
            1 for i, s in enumerate(spans)
            if layer[i] == "schur.s_star" and any(layer[a] == "schur.window" for a in ancestors(i))
        )
        job_wall = busy["cli.job"]
        reconstruct = (busy["numerics.rk4"] + self_time["curves.reconstruct"]
                       + self_time["sphere.reconstruct"] + self_time["minkowski.reconstruct"])

        def share(x):
            return x / job_wall if job_wall > 0 else 0.0

        c = self.counts
        return {
            "numerics.rk4_steps": c["numerics.rk4_steps"],
            "numerics.rk4_busy_s": busy["numerics.rk4"],
            "numerics.bisect_evals": c["numerics.bisect_evals"],
            "curves.rows": c["curves.rows"],
            "curves.reconstruct_busy_s": self_time["curves.reconstruct"],
            "curves.measure_calls": calls["curves.measure"],
            "curves.measure_busy_s": busy["curves.measure"],
            "sphere.reconstruct_busy_s": self_time["sphere.reconstruct"],
            "sphere.project_busy_s": busy["sphere.project"],
            "sphere.reparam_busy_s": busy["sphere.reparam"],
            "sphere.verify_self_s": self_time["sphere.verify"],
            "minkowski.reconstruct_busy_s": self_time["minkowski.reconstruct"],
            "minkowski.check_busy_s": busy["minkowski.check"],
            "schur.windows": windows,
            "schur.window_busy_s": busy["schur.window"],
            "schur.census_calls": calls["schur.census"],
            "schur.census_busy_s": busy["schur.census"],
            "schur.census_per_pair": (calls["schur.census"] / len(self.census_pairs)
                                      if self.census_pairs else 0.0),
            "schur.s_star_calls": calls["schur.s_star"],
            "schur.s_star_busy_s": busy["schur.s_star"],
            "schur.s_star_per_window": s_star_in_windows / windows if windows else 0.0,
            "schur.expansion_pairs": c["schur.expansion_pairs"],
            "schur.expansion_busy_s": busy["schur.expansion"],
            "scipy.pchip_builds": calls["scipy.pchip"],
            "scipy.pchip_busy_s": busy["scipy.pchip"],
            "cli.build_self_s": self_time["cli.build"],
            "cli.write_busy_s": busy["cli.write"],
            "cli.bytes_written": c["cli.bytes_written"],
            "trace.job_wall_s": job_wall,
            "trace.reconstruct_share": share(reconstruct),
            "trace.schur_share": share(busy["schur.window"] + busy["schur.expansion"]),
            "trace.write_share": share(busy["cli.write"]),
        }

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(schurkit_s, scipy_s) from ``-X importtime`` output of ``import schurkit.cli``.

    The report lists modules children-first with two spaces of indent per
    nesting level. scipy_s sums the outermost scipy modules; schurkit_s is
    the rest of the ``schurkit`` import tree.
    """
    nodes = []   # (level, name, cumulative_us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue     # column header
        level = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while nodes and nodes[-1][0] > level:
            children.append(nodes.pop())
        nodes.append((level, name.strip(), int(cum), children))

    def scipy_us(node):
        if node[1].split(".")[0] == "scipy":
            return node[2]
        return sum(scipy_us(ch) for ch in node[3])

    roots = [n for n in nodes if n[1].split(".")[0] == "schurkit"]
    total = sum(n[2] for n in roots)
    scipy = sum(scipy_us(n) for n in roots)
    return (total - scipy) * 1e-6, scipy * 1e-6
