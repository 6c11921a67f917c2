"""Rectified boundary charts and near-boundary point pairing.

Near a boundary anchor a the map zeta(z) = (z - eta_j(a)) / d_gamma(eta_j)(a)
straightens the trace curve: in the coordinates s = psi1_inverse(zeta_1),
r = zeta_2 - psi2(s) the curve becomes the line r = 0.  A chart samples the
trace and its tangent on equispaced grids shifted to the anchor, each one
inverse FFT of the padded spectrum.  Points of a perturbed image are paired
with reference points by matching their (s, r) coordinates.  Image points
come from the compensated Cauchy rule of `argument`, which stays accurate up
to the contour, so a target needs no separate near-contour quadrature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import boundary as bc
from . import argument as ap
from . import errors
from .boundary import BoundaryFunction
from .errors import (
    AllChartsFailed,
    DerivativeVanishes,
    OutOfChart,
    WindowCollapse,
)
from .holomorphic import TraceTuple

__all__ = [
    "BoundaryChart",
    "build_chart",
    "rectify",
    "unrectify",
    "pair_points",
    "near_boundary_diagnostic",
    "DiagnosticReport",
]

_C0 = 0.5
_DERIV_TOL = 1e-8


@dataclass(frozen=True)
class BoundaryChart:
    """Local rectifying chart of a trace curve at a boundary anchor."""

    eta_j: BoundaryFunction
    anchor: float
    chart_index: int
    disk_radius: float
    zeta_shift: complex
    zeta_scale: complex
    gamma_window: tuple          # (l_lo, l_hi), l_lo < anchor < l_hi
    psi1_inverse: PchipInterpolator
    c0: float = _C0

    @property
    def window_length(self) -> float:
        return self.gamma_window[1] - self.gamma_window[0]

    def zeta(self, z: np.ndarray | complex) -> np.ndarray | complex:
        return (z - self.zeta_shift) / self.zeta_scale

    def psi(self, l: np.ndarray | float) -> np.ndarray | complex:
        """Image of the curve in chart coordinates, psi = psi1 + i psi2."""
        return self.zeta(self.eta_j.eval_at(np.atleast_1d(np.asarray(l, float))))

    def contains_l(self, l: float) -> bool:
        lo, hi = self.gamma_window
        return lo <= l <= hi


def build_chart(eta_j: BoundaryFunction, a: float, chart_index: int = 0,
                c0: float = _C0) -> BoundaryChart:
    """Grow a rectifying chart symmetrically from the anchor.

    The window extends while the tangent stays inside the cone
    Re(d_gamma eta_j(l) / d_gamma eta_j(a)) in [c0, 1/c0]; the chart disk
    radius is set so the curve enters the disk only through the window.
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
    ok_p = (ratio_p >= c0) & (ratio_p <= 1.0 / c0)
    ok_m = (ratio_m >= c0) & (ratio_m <= 1.0 / c0)
    kp = int(np.argmin(ok_p)) if not ok_p.all() else ok_p.size
    km = int(np.argmin(ok_m)) if not ok_m.all() else ok_m.size
    k = min(kp, km)
    if k * h < 4.0 * length / n:
        raise WindowCollapse(f"window {k * h:.3e} below 4 grid steps")
    lo, hi = a - k * h, a + k * h

    # psi1 on the window (steps h/4, k >= 32 here), monotone interpolant for
    # its inverse
    ls = np.linspace(lo, hi, 8 * k + 1)
    eta_w = np.roll(eta_j.values(4 * n_fine, offset=a), 4 * k)[:8 * k + 1]
    z_a = complex(eta_w[4 * k])
    psi1 = ((eta_w - z_a) / scale).real
    if np.any(np.diff(psi1) <= 0):
        raise WindowCollapse("psi1 not strictly increasing on the window")
    inv = PchipInterpolator(psi1, ls, extrapolate=False)

    # disk radius: curve outside the window must stay out of the disk
    all_l = np.arange(4 * n) * (length / (4 * n))
    rel = np.remainder(all_l - a + length / 2.0, length) - length / 2.0
    outside = (rel < lo - a) | (rel > hi - a)
    curve = eta_j.values(4 * n)
    d_out = np.abs(curve[outside] - z_a).min() if outside.any() else np.inf
    d_in = np.abs(curve[~outside] - z_a).max()
    radius = 0.99 * min(d_out, d_in)
    return BoundaryChart(eta_j, a, chart_index, float(radius), z_a, scale,
                         (lo, hi), inv, c0)


def _refine_s(chart: BoundaryChart, zeta1: float, s0: float,
              tol: float = 1e-12, max_iter: int = 50) -> float:
    """Newton refinement of psi1(s) = zeta1 from the interpolant's estimate.

    Raises OutOfChart when max_iter steps end without a step below tol.
    """
    deta = bc.derivative_gamma(chart.eta_j)
    s = s0
    for _ in range(max_iter):
        f = chart.psi(s)[0].real - zeta1
        df = (deta.eval_at(s)[0] / chart.zeta_scale).real
        step = f / df
        s -= step
        if abs(step) < tol * max(1.0, abs(s)):
            return float(s)
    raise OutOfChart(f"Newton for psi1(s) = {zeta1:.6g} did not converge in "
                     f"{max_iter} iterations, last step {abs(step):.3e}")


def rectify(chart: BoundaryChart, z: complex) -> tuple[float, float]:
    """Chart coordinates (s, r) of a point near the trace curve."""
    zeta = chart.zeta(z)
    lo, hi = chart.gamma_window
    rng = chart.psi1_inverse.x
    if not (rng[0] <= zeta.real <= rng[-1]):
        raise OutOfChart(f"zeta_1 = {zeta.real:.4f} outside [{rng[0]:.4f}, {rng[-1]:.4f}]")
    s0 = float(chart.psi1_inverse(zeta.real))
    s = _refine_s(chart, zeta.real, s0)
    s = min(max(s, lo), hi)
    psi2 = chart.psi(s)[0].imag
    return s, float(zeta.imag - psi2)


def unrectify(chart: BoundaryChart, s: float, r: float) -> complex:
    """Inverse of rectify: closed form, no iteration needed."""
    if not chart.contains_l(s):
        raise OutOfChart(f"s = {s:.4f} outside window {chart.gamma_window}")
    psi = chart.psi(s)[0]
    return complex(chart.zeta_shift + chart.zeta_scale * (psi + 1j * r))


def _coordinate_at(e: TraceTuple, j: int, z: complex) -> np.ndarray:
    """All n coordinates of the image point above z in chart j."""
    return ap._cauchy_many(e.traces, e[j], np.array([z]), compensated=True)[0][:, 0]


def pair_points(chart: BoundaryChart, chart_p: BoundaryChart,
                p_prime: np.ndarray, e: TraceTuple) -> np.ndarray:
    """Reference-image point paired with a perturbed-image point.

    Matches the rectified coordinates: read (s, r) of the perturbed point in
    its own chart, place the same (s, r) in the reference chart and evaluate
    the reference immersion there.  Points on the curve (r = 0) map to the
    boundary trace values at the same arclength, exactly.
    """
    j = chart.chart_index
    if chart_p.chart_index != j:
        raise OutOfChart("charts use different coordinate projections")
    z_p = complex(p_prime[j])
    s, r = rectify(chart_p, z_p)
    if r == 0.0:
        return np.array([complex(e[k].eval_at(s)[0]) for k in range(len(e))])
    z = unrectify(chart, s, r)
    return _coordinate_at(e, j, z)


@dataclass
class DiagnosticReport:
    """Near-boundary pairing discrepancy, per anchor and global."""

    anchors: list = field(default_factory=list)
    global_sup: float = 0.0

    def to_json(self) -> dict:
        return {"anchors": self.anchors, "global_sup": self.global_sup}

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)


def near_boundary_diagnostic(e: TraceTuple, e_prime: TraceTuple,
                             n_anchors: int = 8, depth: float = 0.05,
                             n_depths: int = 4, n_feet: int = 3) -> DiagnosticReport:
    """Sup of |pair(p') - p'| over sampled near-boundary perturbed points.

    For each equispaced anchor, the chart index with the largest tangential
    derivative is tried first; anchors where every index fails are recorded
    and skipped.  Perturbed points are synthesized at rectified depths
    r in (0, depth] above several window feet.
    """
    length = e.length
    report = DiagnosticReport()
    n_built = 0
    for i in range(n_anchors):
        a = i * length / n_anchors
        derivs = [abs(complex(bc.derivative_gamma(e[j]).eval_at(a)[0]))
                  for j in range(len(e))]
        entry = {"a": a, "chart_j": None, "c0": _C0, "window": None,
                 "sup_discrepancy": None, "n_failed": 0}
        chart = chart_p = None
        for j in np.argsort(derivs)[::-1]:
            try:
                chart = build_chart(e[int(j)], a, int(j))
                # the pairing needs a single preimage: probe the interior side
                z_probe = unrectify(chart, a, depth)
                if ap.winding_number(e[int(j)], z_probe) != 1:
                    raise OutOfChart("projection not single-sheeted here")
                chart_p = build_chart(e_prime[int(j)], a, int(j))
                entry["chart_j"] = int(j)
                break
            except (DerivativeVanishes, WindowCollapse, OutOfChart,
                    errors.NonIntegerWinding, errors.TooCloseToContour):
                chart = chart_p = None
        if chart is None:
            entry["n_failed"] = len(e)
            report.anchors.append(entry)
            continue
        n_built += 1
        entry["window"] = list(chart.gamma_window)
        lo, hi = chart_p.gamma_window
        wl = hi - lo
        feet = a + np.linspace(-0.25, 0.25, n_feet) * wl
        depths = depth * np.arange(1, n_depths + 1) / n_depths
        sup = 0.0
        n_failed = 0
        for s0 in feet:
            for r0 in depths:
                try:
                    z_p = unrectify(chart_p, float(s0), float(r0))
                    j = chart.chart_index
                    p_prime = _coordinate_at(e_prime, j, z_p)
                    p = pair_points(chart, chart_p, p_prime, e)
                    sup = max(sup, float(np.abs(p - p_prime).max()))
                except OutOfChart:
                    n_failed += 1
        entry["sup_discrepancy"] = sup
        entry["n_failed"] = n_failed
        report.anchors.append(entry)
        report.global_sup = max(report.global_sup, sup)
    if n_built == 0:
        raise AllChartsFailed("no anchor admitted a valid chart")
    return report
