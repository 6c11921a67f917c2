"""Cauchy boundary integrals, winding classification and cloud reconstruction.

Interior values of a holomorphic immersion are recovered from its boundary
traces alone: for a target z enclosed exactly once by the curve eta_j(Gamma),
the contour integral (1/2 pi i) * integral of eta_k d_gamma(eta_j) / (eta_j - z)
returns the value of the k-th coordinate at the unique preimage.  A grid of
such targets, classified by winding number, yields a point cloud sampling the
immersed image.  Winding numbers use the plain trapezoidal rule; image
coordinates use its compensated form, which is accurate up to the contour.
Each target gets its own node count from its distance to the contour,
rounded up to three significant bits (m * 2^k, m in 4..7): the sizes are
7-smooth, so every FFT that samples the contour is fast, and the few sizes a
call uses are each sampled once for all of its targets.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import boundary as bc
from .boundary import BoundaryFunction
from .errors import (
    DerivativeVanishes,
    EmptyCloud,
    NonIntegerWinding,
    TooCloseToContour,
)
from .holomorphic import TraceTuple

__all__ = [
    "WindingField",
    "ReconstructedCloud",
    "ImmersionReport",
    "cauchy_integral",
    "winding_number",
    "classify",
    "reconstruct",
    "derivative_integral",
    "immersion_check",
    "contour_distance",
]

_MAX_NODES = 16384  # 4 * 2^12, on the node ladder
_OVERSAMPLE = 4
_MERGE_REL = 1e-6  # duplicate image points: relative to the largest diameter


def _contour_samples(eta_j: BoundaryFunction, n_points: int | None = None) -> np.ndarray:
    n = n_points if n_points is not None else _OVERSAMPLE * eta_j.n_modes
    return eta_j.values(n)


def _z_diameter(samples: np.ndarray) -> float:
    # bounding-box diagonal; only sets quadrature and tolerance scales
    w = samples.real.max() - samples.real.min()
    h = samples.imag.max() - samples.imag.min()
    return float(np.hypot(w, h))


def contour_distance(eta_j: BoundaryFunction, z: np.ndarray | complex) -> np.ndarray:
    """Discrete distance from z to the curve eta_j(Gamma) (4N samples)."""
    samples = _contour_samples(eta_j)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    tree = cKDTree(np.column_stack([samples.real, samples.imag]))
    d, _ = tree.query(np.column_stack([zs.real, zs.imag]))
    return d if np.ndim(z) else d[0]


def _round_up_nodes(counts: np.ndarray) -> np.ndarray:
    """Cap node counts at _MAX_NODES, then round up to three significant bits.

    A count n >= 4 becomes the smallest m * 2^k >= n with m in {4, 5, 6, 7}:
    a 7-smooth FFT size at most 1.25 n.  More nodes only make a periodic
    trapezoidal sum more accurate.
    """
    counts = np.minimum(counts, _MAX_NODES).astype(np.int64)
    shift = np.maximum(np.frexp(counts)[1] - 3, 0)
    return ((counts + (1 << shift) - 1) >> shift) << shift


def _node_plan(eta_j: BoundaryFunction, dists: np.ndarray,
               squared: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature node count per target distance, and the exclusion band.

    The count resolves the kernel's scale diam / dist (doubled for the
    squared kernel), rounded up onto the ladder m * 2^k (m in 4..7) and
    capped at _MAX_NODES, so a call's targets share a handful of counts.
    The plain rule refuses a target closer to the contour than the band
    4 * arclength / count of its rounded count.
    """
    c_q = 40.0 * _z_diameter(_contour_samples(eta_j))
    counts = np.maximum(eta_j.n_modes, np.ceil(c_q / np.maximum(dists, 1e-300)))
    if squared:
        counts *= 2
    counts = _round_up_nodes(counts)
    return counts, 4.0 * _z_arclength(eta_j) / counts


def _z_arclength(eta_j: BoundaryFunction) -> float:
    d = bc.derivative_gamma(eta_j).values(_OVERSAMPLE * eta_j.n_modes)
    return float(np.mean(np.abs(d)) * eta_j.length)


def _cauchy_raw(numerators: Sequence[BoundaryFunction | None],
                eta_j: BoundaryFunction, d_eta_j: BoundaryFunction,
                zs: np.ndarray, squared: bool, n_nodes: int) -> np.ndarray:
    """Trapezoidal sums (h / 2 pi i) sum eta_k d_gamma(eta_j) / (eta_j - z)^p.

    d_eta_j is d_gamma(eta_j).  The kernel d_eta_j / (eta_j - z)^p is built
    once and weighted per numerator; None (the constant 1) costs one row-sum.
    """
    ej = eta_j.values(n_nodes)
    dj = d_eta_j.values(n_nodes)
    kern = ej[None, :] - zs[:, None]
    if squared:
        kern **= 2
    np.divide(dj[None, :], kern, out=kern)
    out = np.empty((len(numerators), zs.size), dtype=complex)
    for row, eta_k in enumerate(numerators):
        out[row] = kern.sum(axis=1) if eta_k is None else kern @ eta_k.values(n_nodes)
    return out * (eta_j.length / n_nodes / (2j * np.pi))


def _cauchy_many(eta_k: BoundaryFunction | None | Sequence[BoundaryFunction | None],
                 eta_j: BoundaryFunction, zs: np.ndarray,
                 squared: bool = False, compensated: bool = False) -> np.ndarray:
    """Cauchy integrals at many targets, nodes chosen per contour distance.

    eta_k is one numerator (None for the constant 1), giving one value per
    target, or a sequence of numerators, giving one row each; all rows share
    the contour samples, the distances and the node plan.  The targets are
    summed in one pass per distinct rounded node count (_node_plan), so the
    contour, its derivative and the numerators are sampled a few times per
    call, not once per target.  The plain rule refuses targets inside the
    exclusion band (TooCloseToContour).

    compensated=True is the rule for image coordinates of targets enclosed
    once: each row is divided by the winding row of the same node plan
    (Helsing & Ojala 2008).  A pole near the contour spoils both sums by the
    same factor, which cancels, so band targets take the capped node count
    instead of being refused.  A winding number has no such divisor, so
    winding numbers keep the plain rule.  The compensated rule returns the
    winding row too: a target not enclosed once gives a ratio of two
    vanishing sums, which only that row reveals.
    """
    single = eta_k is None or isinstance(eta_k, BoundaryFunction)
    numerators = [eta_k] if single else list(eta_k)
    if compensated:
        numerators.append(None)
    zs = np.asarray(zs, dtype=complex)
    dists = contour_distance(eta_j, zs)
    out = np.empty((len(numerators), zs.size), dtype=complex)
    counts, eps_min = _node_plan(eta_j, dists, squared)
    if not compensated and np.any(dists < eps_min):
        bad = int(np.argmax(dists < eps_min))
        raise TooCloseToContour(
            f"target {zs[bad]} at distance {dists[bad]:.3e} < {eps_min[bad]:.3e}")
    d_eta_j = bc.derivative_gamma(eta_j)
    for n in np.unique(counts):
        sel = counts == n
        out[:, sel] = _cauchy_raw(numerators, eta_j, d_eta_j, zs[sel], squared, int(n))
    if compensated:
        winding = out[-1]
        out = out[:-1] / winding
        return (out[0] if single else out), winding
    return out[0] if single else out


def cauchy_integral(eta_k: BoundaryFunction | None, eta_j: BoundaryFunction,
                    z: complex) -> complex:
    """J_{k,j}(z): k-th coordinate summed over preimages of z under w_j.

    eta_k = None stands for the constant 1, so the integral is the winding
    number of eta_j around z.
    """
    return complex(_cauchy_many(eta_k, eta_j, np.array([z]))[0])


def derivative_integral(eta_k: BoundaryFunction | None, eta_j: BoundaryFunction,
                        z: complex) -> complex:
    """d/dz of the Cauchy integral: squared denominator, doubled nodes."""
    return complex(_cauchy_many(eta_k, eta_j, np.array([z]), squared=True)[0])


def winding_number(eta_j: BoundaryFunction, z: complex) -> int:
    """Winding of eta_j(Gamma) around z, certified to round cleanly."""
    val = cauchy_integral(None, eta_j, z).real
    w = int(np.round(val))
    if abs(val - w) >= 0.1:
        raise NonIntegerWinding(f"contour integral {val:.4f} at z={z}")
    return w


@dataclass(frozen=True)
class WindingField:
    """Integer winding numbers of a trace contour on a rectangular lattice."""

    grid: np.ndarray          # complex lattice points, flattened
    winding: np.ndarray       # int per point; valid where not near-contour
    near_contour: np.ndarray  # bool marker per point
    epsilon: float
    shape: tuple

    def points_with_winding(self, w: int) -> np.ndarray:
        return self.grid[(~self.near_contour) & (self.winding == w)]


def classify(eta_j: BoundaryFunction, grid_resolution: int, eps: float) -> WindingField:
    """Winding field on a padded bounding-box lattice of the contour."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    samples = _contour_samples(eta_j)
    x0, x1 = samples.real.min(), samples.real.max()
    y0, y1 = samples.imag.min(), samples.imag.max()
    px, py = 0.2 * (x1 - x0), 0.2 * (y1 - y0)
    pad = max(px, py, 1e-12)
    xs = np.linspace(x0 - pad, x1 + pad, grid_resolution)
    ys = np.linspace(y0 - pad, y1 + pad, grid_resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = (gx + 1j * gy).ravel()
    near = contour_distance(eta_j, grid) <= eps
    winding = np.zeros(grid.size, dtype=int)
    far = ~near
    if np.any(far):
        vals = _cauchy_many(None, eta_j, grid[far]).real
        w = np.round(vals).astype(int)
        if np.any(np.abs(vals - w) >= 0.1):
            raise NonIntegerWinding("winding integral failed to round on the grid")
        winding[far] = w
    return WindingField(grid, winding, near, eps, (grid_resolution, grid_resolution))


@dataclass
class ReconstructedCloud:
    """Point cloud in C^n sampling an immersed surface image."""

    points: np.ndarray        # (n_pts, n) complex
    tags: list                # "interior" or "boundary"
    chart_j: np.ndarray       # chart index, -1 for boundary points
    source_z: np.ndarray      # grid target per interior point, nan+0j for boundary
    epsilon: float
    n_dropped: int = 0        # targets their chart does not enclose once
    merge_tol: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_coords(self) -> int:
        return self.points.shape[1]

    def interior_points(self) -> np.ndarray:
        sel = np.array([t == "interior" for t in self.tags])
        return self.points[sel]

    def to_csv(self, path: str):
        n = self.n_coords
        header = []
        for k in range(1, n + 1):
            header += [f"re_{k}", f"im_{k}"]
        header += ["tag", "chart_j", "source_z_re", "source_z_im"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i in range(self.n_points):
                row = []
                for k in range(n):
                    row += [repr(float(self.points[i, k].real)),
                            repr(float(self.points[i, k].imag))]
                row += [self.tags[i], int(self.chart_j[i]),
                        repr(float(self.source_z[i].real)),
                        repr(float(self.source_z[i].imag))]
                w.writerow(row)

    @staticmethod
    def from_csv(path: str) -> "ReconstructedCloud":
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            n = (len(header) - 4) // 2
            pts, tags, charts, src = [], [], [], []
            for row in rd:
                pts.append([complex(float(row[2 * k]), float(row[2 * k + 1]))
                            for k in range(n)])
                tags.append(row[2 * n])
                charts.append(int(row[2 * n + 1]))
                src.append(complex(float(row[2 * n + 2]), float(row[2 * n + 3])))
        if not pts:
            raise EmptyCloud(f"no points in {path}")
        return ReconstructedCloud(np.array(pts), tags, np.array(charts),
                                  np.array(src), epsilon=0.0)


def reconstruct(e: TraceTuple, eps: float, grid_resolution: int = 64,
                fields: list[WindingField] | None = None) -> ReconstructedCloud:
    """Sample the immersed image from boundary traces alone.

    Every lattice point enclosed exactly once by some chart contour yields
    the point (J_{1,j}, ..., J_{n,j}) by the compensated Cauchy rule.
    J_{j,j}(z) - z is sum(d_gamma eta_j) over the winding sum, and
    sum(d_gamma eta_j) is N times a zero mean, so J_{j,j} is the identity to
    rounding and its derivative, 1, makes the preimage simple.  A shared list
    of winding fields lets two clouds be reconstructed on identical targets;
    fields classified on another tuple may hold targets that e[j] does not
    enclose once, and those are dropped and counted in n_dropped.
    """
    n = len(e)
    if fields is None:
        fields = [classify(e[j], grid_resolution, eps) for j in range(n)]
    pts, tags, charts, srcs = [], [], [], []
    diam_all = 0.0
    n_dropped = 0
    for j in range(n):
        diam_all = max(diam_all, _z_diameter(_contour_samples(e[j])))
        zs = fields[j].points_with_winding(1)
        if zs.size == 0:
            continue
        vals, winding = _cauchy_many(e.traces, e[j], zs, compensated=True)
        once = np.abs(winding - 1.0) < 0.1
        n_dropped += int(zs.size - once.sum())
        zs = zs[once]
        pts.extend(vals[:, once].T)
        tags.extend(["interior"] * zs.size)
        charts.extend([j] * zs.size)
        srcs.extend(zs)
    # boundary samples at 4N nodes
    nb = _OVERSAMPLE * e.n_modes
    pts.extend(np.stack([e[k].values(nb) for k in range(n)], axis=1))
    tags.extend(["boundary"] * nb)
    charts.extend([-1] * nb)
    srcs.extend([complex(np.nan, 0.0)] * nb)
    points = np.array(pts)
    charts = np.array(charts)
    srcs = np.array(srcs)
    # merge duplicates (same image point found by different charts, or
    # degenerate boundary samples); keep the earliest occurrence
    merge_tol = _MERGE_REL * max(diam_all, 1e-6)
    flat = np.column_stack([points.real, points.imag])
    pairs = cKDTree(flat).query_pairs(merge_tol)
    drop = {max(a, b) for a, b in pairs}
    if drop:
        mask = np.ones(points.shape[0], dtype=bool)
        mask[sorted(drop)] = False
        points = points[mask]
        charts = charts[mask]
        srcs = srcs[mask]
        tags = [t for t, m in zip(tags, mask) if m]
    return ReconstructedCloud(points, list(tags), charts, srcs, eps,
                              n_dropped=n_dropped, merge_tol=merge_tol)


@dataclass(frozen=True)
class ImmersionReport:
    """Verdict of the full-rank Jacobian check over sampled chart points."""

    applicable: bool
    passed: bool
    min_margin: float
    n_samples: int

    def __bool__(self):
        return self.applicable and self.passed


def immersion_check(e: TraceTuple, fields: list[WindingField], m: int,
                    sigma_min_tol: float = 1e-6,
                    max_samples_per_chart: int = 64) -> ImmersionReport:
    """Full-rank test of the first m coordinates on winding-1 samples.

    The complex derivatives d_k = dw_k/dz stack into a real 2m x 2 Jacobian;
    full rank is certified when the smallest singular value stays above
    sigma_min_tol times the largest.
    """
    if m > len(e):
        raise ValueError("m exceeds the number of coordinates")
    margins = []
    n_samples = 0
    for j in range(len(e)):
        zs = fields[j].points_with_winding(1)
        if zs.size == 0:
            continue
        if zs.size > max_samples_per_chart:
            step = zs.size // max_samples_per_chart
            zs = zs[::step][:max_samples_per_chart]
        dmat = _cauchy_many(e.traces[:m], e[j], zs, squared=True).T
        for row in dmat:
            jac = np.zeros((2 * m, 2))
            for k in range(m):
                d = row[k]
                jac[2 * k:2 * k + 2] = [[d.real, -d.imag], [d.imag, d.real]]
            sv = np.linalg.svd(jac, compute_uv=False)
            if sv[0] == 0.0:
                raise DerivativeVanishes("Jacobian identically zero at a sample")
            margins.append(sv[-1] / sv[0])
            n_samples += 1
    if not margins:
        return ImmersionReport(False, False, 0.0, 0)
    mmin = float(min(margins))
    return ImmersionReport(True, mmin >= sigma_min_tol, mmin, n_samples)
