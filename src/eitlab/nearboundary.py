"""Rectified boundary charts and near-boundary point pairing.

Near a boundary anchor a the map zeta(z) = (z - eta_j(a)) / d_gamma(eta_j)(a)
straightens the trace curve psi(l) = zeta(eta_j(l)): the point with chart
coordinates (s, r) is zeta = psi(s) + i r, so the curve is the line r = 0.
A chart grows its arclength window while the tangent stays in a cone, and
certifies that psi_1 = Re psi strictly increases on it, which makes
(s, r) -> zeta one-to-one.  The curve's samples come from inverse FFTs of
the padded spectrum on grids shifted to the anchor.  A perturbed and a
reference image point are paired when they have the same (s, r) in their
own charts.  The reference charts depend on the reference tuple only, so
`reference_charts` builds and probes them once for all perturbed tuples.
Image points come from the compensated Cauchy rule of `argument`, which
stays accurate up to the contour, so a target needs no separate
near-contour quadrature.  The rule is exact per target, so the
anchors of one chart index share one compensated call per trace tuple.
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
    zeta_shift: complex
    zeta_scale: complex
    gamma_window: tuple          # (l_lo, l_hi), l_lo < anchor < l_hi

    @property
    def window_length(self) -> float:
        return self.gamma_window[1] - self.gamma_window[0]

    def zeta(self, z: np.ndarray | complex) -> np.ndarray | complex:
        return (z - self.zeta_shift) / self.zeta_scale

    def psi(self, l: np.ndarray | float) -> np.ndarray | complex:
        """Image of the curve in chart coordinates, psi = psi1 + i psi2."""
        return self.zeta(self.eta_j.eval_at(np.atleast_1d(np.asarray(l, float))))

    def contains_l(self, l: np.ndarray | float) -> np.ndarray | bool:
        lo, hi = self.gamma_window
        return (lo <= l) & (l <= hi)


def build_chart(eta_j: BoundaryFunction, a: float, chart_index: int = 0) -> BoundaryChart:
    """Grow a rectifying chart symmetrically from the anchor.

    The window extends while the tangent stays inside the cone
    Re(d_gamma eta_j(l) / d_gamma eta_j(a)) in [_C0, 1/_C0], and psi1 must
    strictly increase on it (WindowCollapse otherwise).
    """
    length = eta_j.length
    n = eta_j.n_modes
    n_fine = 8 * n
    h = length / n_fine
    # d_gamma eta_j at a + k h, k = 0 .. n_fine - 1 (negative k wrap around)
    deta = bc.derivative_gamma(eta_j).values(n_fine, offset=a)
    scale = complex(deta[0])
    if abs(scale) <= _DERIV_TOL:
        raise DerivativeVanishes(f"|d_gamma eta_j({a})| = {abs(scale):.2e}")
    # grow symmetrically on the oversampled grid
    ratio_p = (deta[1:n_fine // 2] / scale).real
    ratio_m = (deta[:n_fine // 2:-1] / scale).real
    ok = ((ratio_p >= _C0) & (ratio_p <= 1.0 / _C0)
          & (ratio_m >= _C0) & (ratio_m <= 1.0 / _C0))
    k = int(np.argmin(ok)) if not ok.all() else ok.size
    if k * h < 4.0 * length / n:
        raise WindowCollapse(f"window {k * h:.3e} below 4 grid steps")

    # psi1 on the window, steps h/4 (k >= 32 here)
    eta_w = np.roll(eta_j.values(4 * n_fine, offset=a), 4 * k)[:8 * k + 1]
    z_a = complex(eta_w[4 * k])
    if np.any(np.diff(((eta_w - z_a) / scale).real) <= 0):
        raise WindowCollapse("psi1 not strictly increasing on the window")
    return BoundaryChart(eta_j, a, chart_index, z_a, scale, (a - k * h, a + k * h))


def unrectify(chart: BoundaryChart, s: np.ndarray | float,
              r: np.ndarray | float) -> np.ndarray | complex:
    """Points with chart coordinates (s, r), zeta = psi(s) + i r, in closed form."""
    s = np.asarray(s, dtype=float)
    if not np.all(chart.contains_l(s)):
        raise OutOfChart(f"s = {s} outside window {chart.gamma_window}")
    psi = chart.psi(s).reshape(s.shape)
    return chart.zeta_shift + chart.zeta_scale * (psi + 1j * np.asarray(r))


def _coordinate_at(e: TraceTuple, j: int, zs: np.ndarray) -> np.ndarray:
    """Image points above the targets zs in chart j, one row of n coordinates each."""
    return ap._cauchy_many(e, e[j], zs, compensated=True)[0].T


def pair_points(charts: Sequence[BoundaryChart], charts_p: Sequence[BoundaryChart],
                e: TraceTuple, e_prime: TraceTuple, s: Sequence[np.ndarray],
                r: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Reference and perturbed image points paired by their chart coordinates.

    charts[i] and charts_p[i] are the reference and perturbed charts of one
    anchor, and (s[i], r[i]) its chart coordinates.  Each (s, r) is placed in
    both charts, and each immersion is evaluated there; since (s, r) -> zeta
    is one-to-one on a chart, the pair needs no inverse chart map.  All
    charts share one chart index, so every anchor's targets go into one
    compensated Cauchy call per trace tuple.  The rows of p and of p_prime
    are the pairs of (s[0], r[0]), then of (s[1], r[1]), and so on.
    """
    j = charts[0].chart_index
    if any(ch.chart_index != j for ch in (*charts, *charts_p)):
        raise OutOfChart("charts use different coordinate projections")

    def targets(chs):
        return np.concatenate([np.ravel(unrectify(ch, si, ri))
                               for ch, si, ri in zip(chs, s, r, strict=True)])

    return (_coordinate_at(e, j, targets(charts)),
            _coordinate_at(e_prime, j, targets(charts_p)))


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

    charts[i] holds the (j, chart) pairs of anchors[i] whose reference chart
    built and passed its single-sheet winding probe, largest tangential
    derivative |d_gamma eta_j(a)| first.
    """

    e: TraceTuple
    anchors: tuple               # equispaced arclength parameters
    charts: tuple                # per anchor, a tuple of (j, BoundaryChart)


def reference_charts(e: TraceTuple, n_anchors: int = 8) -> ReferenceCharts:
    """Build and probe the reference charts of every index at each anchor."""
    anchors = np.arange(n_anchors) * e.length / n_anchors
    d_coeffs = bc._derivative_symbol(e.n_modes, e.length)[:, None] * e.coeffs
    derivs = np.abs(bc._phase_kernel(e.n_modes, e.length, anchors) @ d_coeffs).T
    charts = []
    for i, a in enumerate(anchors.tolist()):
        admitted = []
        for j in np.argsort(derivs[:, i])[::-1].tolist():
            try:
                chart = build_chart(e[j], a, j)
                # the pairing needs a single preimage: probe the interior side
                if ap.winding_number(e[j], unrectify(chart, a, _DEPTH)) == 1:
                    admitted.append((j, chart))
            except (DerivativeVanishes, WindowCollapse, TooCloseToContour):
                pass
        charts.append(tuple(admitted))
    return ReferenceCharts(e, tuple(anchors.tolist()), tuple(charts))


def near_boundary_diagnostic(ref: ReferenceCharts,
                             e_prime: TraceTuple) -> DiagnosticReport:
    """Sup of |p - p'| over paired near-boundary points.

    Each anchor takes the first of its admitted reference charts whose
    perturbed chart builds; anchors where none does are recorded and
    skipped.  Points are paired at rectified depths r in (0, _DEPTH]
    above _N_FEET feet spread over half the perturbed window; feet outside
    the reference window cannot be paired and are counted in n_failed.  The
    anchors that chose one chart index are paired in one pair_points call.
    """
    report = DiagnosticReport()
    depths = _DEPTH * np.arange(1, _N_DEPTHS + 1) / _N_DEPTHS
    groups = {}  # chart index -> (entry, chart, chart_p, s, r) per built anchor
    for a, admitted in zip(ref.anchors, ref.charts):
        entry = {"a": a, "chart_j": None, "window": None,
                 "sup_discrepancy": None, "n_failed": 0}
        report.anchors.append(entry)
        for j, chart in admitted:
            try:
                chart_p = build_chart(e_prime[j], a, j)
                break
            except (DerivativeVanishes, WindowCollapse):
                pass
        else:
            entry["n_failed"] = len(ref.e)
            continue
        entry["chart_j"] = j
        entry["window"] = list(chart.gamma_window)
        feet = a + np.linspace(-0.25, 0.25, _N_FEET) * chart_p.window_length
        inside = chart.contains_l(feet)  # the middle foot, a, always is
        s, r = np.meshgrid(feet[inside], depths, indexing="ij")
        entry["n_failed"] = int(np.count_nonzero(~inside)) * _N_DEPTHS
        groups.setdefault(j, []).append(
            (entry, chart, chart_p, s.ravel(), r.ravel()))
    if not groups:
        raise AllChartsFailed("no anchor admitted a valid chart")
    for group in groups.values():
        entries, charts, charts_p, s, r = zip(*group)
        p, p_prime = pair_points(charts, charts_p, ref.e, e_prime, s, r)
        gap = np.abs(p - p_prime).max(axis=1)
        ends = np.cumsum([si.size for si in s])[:-1]
        for entry, rows in zip(entries, np.split(gap, ends)):
            entry["sup_discrepancy"] = float(rows.max())
            report.global_sup = max(report.global_sup, entry["sup_discrepancy"])
    return report
