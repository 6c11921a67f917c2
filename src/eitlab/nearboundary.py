"""Rectified boundary charts and near-boundary point pairing.

A chart at a boundary anchor a is the trace eta_j, the anchor, the chart
index, the tangent tau = d_gamma eta_j(a) and an arclength window.  The
point with chart coordinates (s, r) is eta_j(s) + i r tau, in closed form:
r = 0 is the trace curve, and r > 0 steps off it along i tau.  A chart grows
its window while the tangent stays in a cone, and certifies that
psi_1(l) = Re((eta_j(l) - eta_j(a)) / tau) strictly increases on it, which
makes (s, r) -> eta_j(s) + i r tau one-to-one.  The tangent is sampled by
one inverse FFT of the padded spectrum on a grid shifted to the anchor; the
certificate reads a coefficient sum (build_chart).  A perturbed and a
reference image point are paired when they have the same (s, r) in their
own charts.  The coordinates belong to the reference chart, so
`reference_charts` builds, probes and evaluates the reference side once for
all perturbed tuples, and a perturbed tuple evaluates only its own side.
Image points come from the compensated Cauchy rule of `argument`, which
stays accurate up to the contour and is exact per target, so the charts of
one chart index share one call (pair_points).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import boundary as bc
from . import argument as ap
from .boundary import BoundaryFunction
from .errors import (
    AllChartsFailed,
    DerivativeVanishes,
    OutOfChart,
    TooCloseToContour,
    WindowCollapse,
)
from .holomorphic import TraceTuple

__all__ = [
    "BoundaryChart",
    "build_chart",
    "unrectify",
    "pair_points",
    "ReferenceCharts",
    "reference_charts",
    "near_boundary_diagnostic",
    "DiagnosticReport",
]

_C0 = 0.5
_DERIV_TOL = 1e-8
_N_FEET = 3     # diagnostic feet per anchor, spread over half the window
_N_DEPTHS = 4   # diagnostic depths per foot, up to _DEPTH
_DEPTH = 0.05   # largest rectified depth of a paired point


@dataclass(frozen=True)
class BoundaryChart:
    """Local rectifying chart of a trace curve at a boundary anchor."""

    eta_j: BoundaryFunction
    anchor: float
    chart_index: int
    tangent: complex             # d_gamma eta_j(anchor)
    gamma_window: tuple          # (l_lo, l_hi), l_lo < anchor < l_hi

    @property
    def window_length(self) -> float:
        return self.gamma_window[1] - self.gamma_window[0]

    def contains_l(self, l: np.ndarray | float) -> np.ndarray | bool:
        lo, hi = self.gamma_window
        return (lo <= l) & (l <= hi)


def build_chart(eta_j: BoundaryFunction, a: float, chart_index: int = 0) -> BoundaryChart:
    """Grow a rectifying chart symmetrically from the anchor.

    The window extends, in steps h = L / 8N, while the tangent stays inside
    the cone f(l) = Re(d_gamma eta_j(l) / tau) in [_C0, 1/_C0], tau =
    d_gamma eta_j(a).  f is a real trigonometric polynomial of angular
    frequencies below pi N / L, so between two window nodes it dips below
    the smaller node value by at most h^2 / 8 max|f''| <= (h pi N / L)^2 / 8
    max|f| <= pi^2 / 512 sum|c'_m| / |tau| (Bernstein's inequality; c'_m
    the coefficients of d_gamma eta_j).  When pi^2 / 512 sum|c'_m| <
    _C0 |tau|, f > 0 on the window, so psi_1, whose derivative f is,
    strictly increases there; otherwise WindowCollapse.
    """
    length = eta_j.length
    n = eta_j.n_modes
    n_fine = 8 * n
    h = length / n_fine
    d_eta = bc.derivative_gamma(eta_j)
    # d_gamma eta_j at a + k h, k = 0 .. n_fine - 1 (negative k wrap around)
    tangents = d_eta.values(n_fine, offset=a)
    tangent = complex(tangents[0])
    if abs(tangent) <= _DERIV_TOL:
        raise DerivativeVanishes(f"|d_gamma eta_j({a})| = {abs(tangent):.2e}")
    # grow symmetrically on the oversampled grid
    ratio_p = (tangents[1:n_fine // 2] / tangent).real
    ratio_m = (tangents[:n_fine // 2:-1] / tangent).real
    ok = ((ratio_p >= _C0) & (ratio_p <= 1.0 / _C0)
          & (ratio_m >= _C0) & (ratio_m <= 1.0 / _C0))
    k = int(np.argmin(ok)) if not ok.all() else ok.size
    if k * h < 4.0 * length / n:
        raise WindowCollapse(f"window {k * h:.3e} below 4 grid steps")
    dip = np.pi ** 2 / 512 * np.abs(d_eta.coeffs).sum()
    if not dip < _C0 * abs(tangent):
        raise WindowCollapse(f"psi1 not certified increasing: dip bound {dip:.3e} "
                             f">= {_C0} |tau| = {_C0 * abs(tangent):.3e}")
    return BoundaryChart(eta_j, a, chart_index, tangent, (a - k * h, a + k * h))


def unrectify(chart: BoundaryChart, s: np.ndarray | float,
              r: np.ndarray | float) -> np.ndarray | complex:
    """Points with chart coordinates (s, r): eta_j(s) + i r tau, in closed form."""
    s = np.asarray(s, dtype=float)
    if not np.all(chart.contains_l(s)):
        raise OutOfChart(f"s = {s} outside window {chart.gamma_window}")
    on_curve = chart.eta_j.eval_at(s).reshape(s.shape)
    return on_curve + 1j * np.asarray(r) * chart.tangent


def pair_points(e: TraceTuple, charts: Sequence[BoundaryChart],
                s: Sequence[np.ndarray], r: Sequence[np.ndarray]) -> list[tuple]:
    """Image points of e at the coordinates (s[i], r[i]) of each charts[i].

    (s, r) -> zeta is one-to-one on a chart, so points at the same (s, r)
    pair with no inverse chart map.  The charts of one chart index share one
    compensated Cauchy call.  Item i is (p, once): one row of n coordinates
    per target, and the targets enclosed once (argument._image_points, the
    rule reconstruct uses); the other rows are no image point.
    """
    out = [None] * len(charts)
    for j in dict.fromkeys(ch.chart_index for ch in charts):
        idx = [i for i, ch in enumerate(charts) if ch.chart_index == j]
        zs = np.concatenate([np.ravel(unrectify(charts[i], s[i], r[i])) for i in idx])
        p, once = ap._image_points(e, j, zs)
        ends = np.cumsum([np.size(s[i]) for i in idx])[:-1]
        for i, rows, o in zip(idx, np.split(p, ends), np.split(once, ends)):
            out[i] = (rows, o)
    return out


@dataclass
class DiagnosticReport:
    """Near-boundary pairing discrepancy, per anchor and global."""

    anchors: list = field(default_factory=list)
    global_sup: float = 0.0

    def to_json(self) -> dict:
        return {"anchors": self.anchors, "global_sup": self.global_sup}


@dataclass(frozen=True)
class ReferenceCharts:
    """The reference immersion's admitted charts at equispaced anchors.

    charts[i] holds a (chart, s, r, p) entry per chart of anchors[i] that
    built and passed its single-sheet winding probe, largest tangential
    derivative |d_gamma eta_j(a)| first: the chart coordinates the pairing
    uses, and the reference image points there, one row each.  Coordinates
    whose target is not enclosed once are left out.
    """

    e: TraceTuple
    anchors: tuple               # equispaced arclength parameters
    charts: tuple                # per anchor, a tuple of (chart, s, r, p)


def reference_charts(e: TraceTuple, n_anchors: int = 8) -> ReferenceCharts:
    """Build and probe the reference charts of every index at each anchor,
    and evaluate the reference points of all of them in one pair_points call."""
    anchors = np.arange(n_anchors) * e.length / n_anchors
    d_coeffs = bc._derivative_symbol(e.n_modes, e.length)[:, None] * e.coeffs
    derivs = np.abs(bc._phase_kernel(e.n_modes, e.length, anchors) @ d_coeffs).T
    built = []  # (anchor index, chart) per admitted chart
    for i, a in enumerate(anchors.tolist()):
        for j in np.argsort(derivs[:, i])[::-1].tolist():
            try:
                chart = build_chart(e[j], a, j)
                # the pairing needs a single preimage: probe the interior side
                if ap.winding_number(e[j], unrectify(chart, a, _DEPTH)) == 1:
                    built.append((i, chart))
            except (DerivativeVanishes, WindowCollapse, TooCloseToContour):
                pass
    feet = np.linspace(-0.25, 0.25, _N_FEET)
    depths = _DEPTH * np.arange(1, _N_DEPTHS + 1) / _N_DEPTHS
    s = [np.repeat(ch.anchor + feet * ch.window_length, _N_DEPTHS) for _, ch in built]
    r = [np.tile(depths, _N_FEET)] * len(built)
    charts = [[] for _ in anchors]
    points = pair_points(e, [ch for _, ch in built], s, r)
    for (i, chart), si, ri, (p, once) in zip(built, s, r, points):
        charts[i].append((chart, si[once], ri[once], p[once]))
    return ReferenceCharts(e, tuple(anchors.tolist()), tuple(map(tuple, charts)))


def near_boundary_diagnostic(ref: ReferenceCharts,
                             e_prime: TraceTuple) -> DiagnosticReport:
    """Sup of |p - p'| over paired near-boundary points.

    Each anchor takes the first of its admitted reference charts whose
    perturbed chart builds; anchors where none does are recorded and
    skipped.  The perturbed points sit at the reference chart's (s, r), all
    in one pair_points call.  A coordinate outside the perturbed window, or
    whose perturbed target is not enclosed once, has no pair and counts in
    n_failed; an anchor with no pair has no sup (AllChartsFailed if none has).
    """
    report = DiagnosticReport()
    used = []  # (entry, chart_p, s, r, p) per anchor with a perturbed chart
    for a, admitted in zip(ref.anchors, ref.charts):
        entry = {"a": a, "chart_j": None, "window": None,
                 "sup_discrepancy": None, "n_failed": 0}
        report.anchors.append(entry)
        for chart, s, r, p in admitted:
            try:
                chart_p = build_chart(e_prime[chart.chart_index], a, chart.chart_index)
                break
            except (DerivativeVanishes, WindowCollapse):
                pass
        else:
            entry["n_failed"] = len(ref.e)
            continue
        entry["chart_j"] = chart.chart_index
        entry["window"] = list(chart.gamma_window)
        inside = chart_p.contains_l(s)
        used.append((entry, chart_p, s[inside], r[inside], p[inside]))
    entries, charts_p, s, r, p = zip(*used) if used else ((),) * 5
    for entry, p_ref, (p_prime, once) in zip(entries, p,
                                             pair_points(e_prime, charts_p, s, r)):
        entry["n_failed"] = _N_FEET * _N_DEPTHS - int(np.count_nonzero(once))
        if once.any():
            entry["sup_discrepancy"] = float(np.abs(p_ref[once] - p_prime[once]).max())
            report.global_sup = max(report.global_sup, entry["sup_discrepancy"])
    if all(entry["sup_discrepancy"] is None for entry in report.anchors):
        raise AllChartsFailed("no anchor paired a near-boundary point")
    return report
