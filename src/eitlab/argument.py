"""Cauchy boundary integrals, winding classification and cloud reconstruction.

Interior values of a holomorphic immersion are recovered from its boundary
traces alone: for a target z enclosed exactly once by the curve eta_j(Gamma),
the contour integral (1/2 pi i) * integral of eta_k d_gamma(eta_j) / (eta_j - z)
returns the value of the k-th coordinate at the unique preimage.  A grid of
such targets, classified by winding number, yields a point cloud sampling the
immersed image.  Winding numbers are signed crossing counts of the 4N-sample
polygon (Hormann & Agathos 2001), certified to equal the curve's winding at
targets farther from the samples than half the longest chord plus the
chord-to-arc deviation.  Image coordinates use the compensated trapezoidal
Cauchy rule (Helsing & Ojala 2008), which is accurate up to the contour.
Each target gets its own node count from its distance to the contour,
rounded up to three significant bits (m * 2^k, m in 4..7): the sizes are
7-smooth, so every FFT that samples the contour is fast, and the few sizes a
call uses are each sampled once for all of its targets.  The targets x nodes
kernel is built in tiles of target rows, at most boundary._EVAL_BLOCK
entries each, so a call's memory does not grow with its number of targets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import boundary as bc
from .boundary import BoundaryFunction
from .errors import (
    ConfigInvalid,
    DerivativeVanishes,
    EmptyCloud,
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
    "immersion_check",
    "contour_distance",
]

_MAX_NODES = 16384  # 4 * 2^12, on the node ladder
_OVERSAMPLE = 4
_MERGE_REL = 1e-6  # duplicate image points: relative to the largest diameter
_ONCE_TOL = 0.1    # a target is enclosed once where |W - 1| < _ONCE_TOL


def _contour_samples(eta_j: BoundaryFunction) -> np.ndarray:
    return eta_j.values(_OVERSAMPLE * eta_j.n_modes)


def _z_diameter(samples: np.ndarray) -> float:
    # bounding-box diagonal; only sets quadrature and tolerance scales
    return float(np.hypot(np.ptp(samples.real), np.ptp(samples.imag)))


def _sample_distances(samples: np.ndarray, zs: np.ndarray,
                      upper: float = np.inf) -> np.ndarray:
    """Distance from each of zs to the nearest sample; inf from `upper` on."""
    tree = cKDTree(np.column_stack([samples.real, samples.imag]))
    d, _ = tree.query(np.column_stack([zs.real, zs.imag]), distance_upper_bound=upper)
    return d


def contour_distance(eta_j: BoundaryFunction, z: np.ndarray | complex) -> np.ndarray:
    """Discrete distance from z to the curve eta_j(Gamma) (4N samples)."""
    d = _sample_distances(_contour_samples(eta_j), np.atleast_1d(np.asarray(z, dtype=complex)))
    return d if np.ndim(z) else d[0]


def _crossing_winding(samples: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Winding of the closed polygon through samples at every (xs[i], ys[j]).

    Each edge crosses the lattice rows y = ys[j] in its y-range taken
    half-open, [min, max), so a vertex on a row counts once.  A crossing
    counts +1 upward and -1 downward for every lattice point left of it:
    the crossings are binned by the lattice column they lie after and summed
    from the right.  xs and ys are increasing; the cost is O(samples +
    lattice).
    """
    a, b = samples, np.roll(samples, -1)
    lo = np.searchsorted(ys, np.minimum(a.imag, b.imag))
    hi = np.searchsorted(ys, np.maximum(a.imag, b.imag))
    n_rows = hi - lo
    edge = np.repeat(np.arange(a.size), n_rows)
    row = lo[edge] + np.arange(edge.size) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
    a, b = a[edge], b[edge]
    x = a.real + (ys[row] - a.imag) * (b.real - a.real) / (b.imag - a.imag)
    counts = np.zeros((xs.size + 1, ys.size), dtype=int)
    np.add.at(counts, (np.searchsorted(xs, x), row), np.where(b.imag > a.imag, 1, -1))
    return np.cumsum(counts[::-1], axis=0)[::-1][1:]


def _winding_bound(eta_j: BoundaryFunction) -> tuple[np.ndarray, float]:
    """4N samples, and the distance from them past which their polygon winds as the curve does.

    On a step h = L / len(samples) an arc leaves its chord by at most
    h^2 / 8 max|eta_j''| <= h^2 / 8 sum omega^2 |c| (c the coefficients), so
    the straight-line homotopy from the curve to the polygon stays within
    half the longest chord plus that deviation of a sample.
    """
    samples = _contour_samples(eta_j)
    h = eta_j.length / samples.size
    curvature = np.sum(bc._omega(eta_j.n_modes, eta_j.length) ** 2 * np.abs(eta_j.coeffs))
    chord = np.abs(np.roll(samples, -1) - samples).max()
    return samples, float(chord / 2 + h * h / 8 * curvature)


def _round_up_nodes(counts: np.ndarray) -> np.ndarray:
    """Cap node counts at _MAX_NODES, then round up to three significant bits.

    A count n >= 4 becomes the smallest m * 2^k >= n with m in {4, 5, 6, 7}:
    a 7-smooth FFT size at most 1.25 n.  More nodes only make a periodic
    trapezoidal sum more accurate.
    """
    counts = np.minimum(counts, _MAX_NODES).astype(np.int64)
    shift = np.maximum(np.frexp(counts)[1] - 3, 0)
    return ((counts + (1 << shift) - 1) >> shift) << shift


def _node_plan(eta_j: BoundaryFunction, c_q: float, dists: np.ndarray,
               squared: bool = False) -> np.ndarray:
    """Quadrature node count per target distance.

    The count resolves the kernel's scale c_q / dist, c_q = 40 diam
    (doubled for the squared kernel), rounded up onto the ladder m * 2^k
    (m in 4..7) and capped at _MAX_NODES, so a call's targets share a
    handful of counts.
    """
    counts = np.maximum(eta_j.n_modes, np.ceil(c_q / np.maximum(dists, 1e-300)))
    if squared:
        counts *= 2
    return _round_up_nodes(counts)


def _cauchy_raw(block: np.ndarray, ones: bool, length: float, zs: np.ndarray,
                squared: bool, n_nodes: int) -> np.ndarray:
    """Trapezoidal sums (h / 2 pi i) sum eta_k d_gamma(eta_j) / (eta_j - z)^p.

    block holds the coefficient columns [eta_j | d_gamma eta_j | eta_k ...]
    and is sampled by one inverse FFT; each numerator eta_k gives one row,
    and ones adds a last row, the constant 1's row-sum.  The kernel
    d_gamma eta_j / (eta_j - z)^p is built in tiles of target rows, at most
    _EVAL_BLOCK entries each, and each tile takes one matrix-vector product
    per numerator before the next is built.
    """
    ej, dj, *vals = bc._samples(block, n_nodes)
    out = np.empty((len(vals) + ones, zs.size), dtype=complex)
    step = max(1, bc._EVAL_BLOCK // n_nodes)
    tile = np.empty((min(step, zs.size), n_nodes), dtype=complex)  # one for all tiles
    for i in range(0, zs.size, step):
        z = zs[i:i + step, None]
        kern = np.subtract(ej, z, out=tile[:z.shape[0]])
        if squared:
            kern **= 2
        np.divide(dj[None, :], kern, out=kern)
        for row, v in enumerate(vals):
            out[row, i:i + step] = kern @ v
        if ones:
            out[-1, i:i + step] = kern.sum(axis=1)
    out *= length / n_nodes / (2j * np.pi)
    return out


def _cauchy_many(eta_k: BoundaryFunction | TraceTuple | None,
                 eta_j: BoundaryFunction, zs: np.ndarray,
                 squared: bool = False, compensated: bool = False) -> np.ndarray:
    """Cauchy integrals at many targets, nodes chosen per contour distance.

    eta_k is one numerator (None for the constant 1), giving one value per
    target, or a trace tuple, giving one row per trace; all rows share
    the contour samples, the distances and the node plan, and a numerator
    shares the contour's grid (DimensionMismatch otherwise).  The targets
    are summed in one pass per distinct rounded node count (_node_plan);
    each pass samples the block [contour | derivative | numerators] by one
    inverse FFT, and one 4N sample of its first two columns sets the plan
    and the band.  The nearest-sample search stops where the count reaches
    N, which any target farther out takes.  The plain rule refuses a target
    closer to the contour than 4 * arclength / count (TooCloseToContour).

    compensated=True is the rule for image coordinates of targets enclosed
    once: each row is divided by the winding row of the same node plan
    (Helsing & Ojala 2008).  A pole near the contour spoils both sums by the
    same factor, which cancels, so band targets take the capped node count
    instead of being refused.  The compensated rule returns the
    winding row too: a target not enclosed once gives a ratio of two
    vanishing sums, which only that row reveals.
    """
    single = not isinstance(eta_k, TraceTuple)
    # [eta_j | d_gamma eta_j | eta_k], one column per numerator trace
    cols = [eta_j.coeffs, bc.derivative_gamma(eta_j).coeffs]
    if eta_k is not None:
        bc._check_same_grid(eta_k, eta_j)
        cols.append(eta_k.coeffs)
    block = np.column_stack(cols)
    ones = eta_k is None or compensated
    zs = np.asarray(zs, dtype=complex)
    samples, d_samples = bc._samples(block[:, :2], _OVERSAMPLE * eta_j.n_modes)
    c_q = 40.0 * _z_diameter(samples)
    # a target past c_q / N takes N nodes; the search stops a little farther
    # out, so that rounding cannot move a count
    dists = _sample_distances(samples, zs, c_q / (eta_j.n_modes - 1))
    out = np.empty((block.shape[1] - 2 + ones, zs.size), dtype=complex)
    counts = _node_plan(eta_j, c_q, dists, squared)
    if not compensated:
        eps_min = 4.0 * (np.mean(np.abs(d_samples)) * eta_j.length) / counts
        if np.any(dists < eps_min):
            bad = int(np.argmax(dists < eps_min))
            raise TooCloseToContour(
                f"target {zs[bad]} at distance {dists[bad]:.3e} < {eps_min[bad]:.3e}")
    for n in np.unique(counts):
        sel = counts == n
        out[:, sel] = _cauchy_raw(block, ones, eta_j.length, zs[sel], squared, int(n))
    if compensated:
        # the last row is the winding row, which is the constant 1's row too
        winding = out[-1]
        out = (out if eta_k is None else out[:-1]) / winding
        return (out[0] if single else out), winding
    return out[0] if single else out


def _image_points(e: TraceTuple, j: int, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of n coordinates above zs in chart j, and once: the rows that are image points."""
    p, winding = _cauchy_many(e, e[j], zs, compensated=True)
    return p.T, np.abs(winding - 1.0) < _ONCE_TOL


def cauchy_integral(eta_k: BoundaryFunction | None, eta_j: BoundaryFunction,
                    z: complex) -> complex:
    """J_{k,j}(z): k-th coordinate summed over preimages of z under w_j.

    eta_k = None stands for the constant 1, so the integral is the winding
    number of eta_j around z.
    """
    return complex(_cauchy_many(eta_k, eta_j, np.array([z]))[0])


def winding_number(eta_j: BoundaryFunction, z: complex) -> int:
    """Winding of eta_j(Gamma) around z: the crossing count of the 4N-sample polygon.

    The count is certified (_winding_bound); a target no farther from the
    samples than the bound raises TooCloseToContour.
    """
    z = complex(z)
    samples, bound = _winding_bound(eta_j)
    dist = np.abs(samples - z).min()
    if not dist > bound:
        raise TooCloseToContour(f"target {z} at distance {dist:.3e} <= {bound:.3e}")
    return int(_crossing_winding(samples, np.array([z.real]), np.array([z.imag]))[0, 0])


@dataclass(frozen=True)
class WindingField:
    """Integer winding numbers of a trace contour on a rectangular lattice."""

    grid: np.ndarray          # complex lattice points, flattened
    winding: np.ndarray       # int per point; 0 where near-contour
    near_contour: np.ndarray  # bool marker per point
    shape: tuple

    def points_with_winding(self, w: int) -> np.ndarray:
        return self.grid[(~self.near_contour) & (self.winding == w)]


def classify(eta_j: BoundaryFunction, grid_resolution: int, eps: float) -> WindingField:
    """Winding field on a padded bounding-box lattice of the contour.

    Lattice points within eps of the 4N samples are marked near-contour; the
    others take the crossing count of the sample polygon, which equals the
    curve's winding because eps must exceed _winding_bound (half the longest
    chord plus the chord-to-arc deviation; TooCloseToContour otherwise).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    samples, bound = _winding_bound(eta_j)
    if not eps > bound:
        raise TooCloseToContour(f"eps {eps:.3e} <= winding certificate {bound:.3e}")
    x0, x1 = samples.real.min(), samples.real.max()
    y0, y1 = samples.imag.min(), samples.imag.max()
    px, py = 0.2 * (x1 - x0), 0.2 * (y1 - y0)
    pad = max(px, py, 1e-12)
    xs = np.linspace(x0 - pad, x1 + pad, grid_resolution)
    ys = np.linspace(y0 - pad, y1 + pad, grid_resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = (gx + 1j * gy).ravel()
    # distance <= eps: the tree reports only distances below its upper bound
    near = np.isfinite(_sample_distances(samples, grid, np.nextafter(eps, np.inf)))
    winding = _crossing_winding(samples, xs, ys).ravel()
    winding[near] = 0
    return WindingField(grid, winding, near, (grid_resolution, grid_resolution))


@dataclass
class ReconstructedCloud:
    """Point cloud in C^n sampling an immersed image; chart_j >= 0 marks interior points."""

    points: np.ndarray        # (n_pts, n) complex
    chart_j: np.ndarray       # chart index, -1 for boundary points
    source_z: np.ndarray      # grid target per interior point, nan+0j for boundary
    n_dropped: int = 0        # targets their chart does not enclose once

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_coords(self) -> int:
        return self.points.shape[1]

    @property
    def tags(self) -> list:
        """Per point "interior" or "boundary", read off chart_j."""
        return np.where(self.chart_j >= 0, "interior", "boundary").tolist()

    def interior_points(self) -> np.ndarray:
        return self.points[self.chart_j >= 0]

    def to_csv(self, path: str):
        n = self.n_coords
        header = [f"{part}_{k}" for k in range(1, n + 1) for part in ("re", "im")]
        header += ["tag", "chart_j", "source_z_re", "source_z_im"]
        # columns re_1, im_1, re_2, ...; each number written as its repr and
        # each line ended by "\r\n", as csv.writer writes them
        coords = np.stack([self.points.real, self.points.imag], axis=-1)
        columns = [*coords.reshape(self.n_points, 2 * n).T, self.chart_j.astype(int),
                   self.source_z.real, self.source_z.imag]
        text = [map(repr, col.tolist()) for col in columns]
        rows = zip(*text[:2 * n], self.tags, *text[2 * n:])
        lines = [",".join(header), *map(",".join, rows)]
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")

    @staticmethod
    def from_csv(path: str) -> "ReconstructedCloud":
        """Read a to_csv file; a malformed one raises ConfigInvalid naming it."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        n = (len(rows[0]) - 4) // 2 if rows else 0
        if n < 1:
            raise ConfigInvalid(f"{path}: no cloud header")
        bad = next((i for i, row in enumerate(rows, 1) if len(row) != 2 * n + 4), None)
        if bad is not None:
            raise ConfigInvalid(f"{path}, line {bad}: expected {2 * n + 4} fields")
        if len(rows) == 1:
            raise EmptyCloud(f"no points in {path}")
        body = np.array(rows[1:], dtype=object)  # str fields, parsed by float and int
        try:
            chart_j = body[:, 2 * n + 1].astype(int)
            floats = np.delete(body, [2 * n, 2 * n + 1], axis=1).astype(float, order="C")
        except ValueError as exc:
            raise ConfigInvalid(f"{path}: {exc}") from exc
        # re_1, im_1, ..., re_n, im_n, source_z_re, source_z_im as complex pairs
        z = floats.view(complex)
        cloud = ReconstructedCloud(z[:, :n], chart_j, z[:, n])
        if np.any(body[:, 2 * n] != cloud.tags):
            raise ConfigInvalid(f"{path}: a tag disagrees with its chart_j")
        return cloud


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
    # each trace at 4N nodes: the boundary points, and the chart diameters
    nb = _OVERSAMPLE * e.n_modes
    boundary = bc._samples(e.coeffs, nb)
    pts, charts, srcs = [], [], []
    n_dropped = 0
    for j in range(n):
        zs = fields[j].points_with_winding(1)
        if zs.size == 0:
            continue
        vals, once = _image_points(e, j, zs)
        n_dropped += int(zs.size - once.sum())
        pts.append(vals[once])
        charts.append(np.full(once.sum(), j))
        srcs.append(zs[once])
    pts.append(boundary.T)
    charts.append(np.full(nb, -1))
    srcs.append(np.full(nb, complex(np.nan, 0.0)))
    points, chart_j, source_z = (np.concatenate(a) for a in (pts, charts, srcs))
    # merge duplicates (same image point found by different charts, or
    # degenerate boundary samples); keep the earliest occurrence
    merge_tol = _MERGE_REL * max(*map(_z_diameter, boundary), 1e-6)
    flat = np.column_stack([points.real, points.imag])
    pairs = cKDTree(flat).query_pairs(merge_tol, output_type="ndarray")
    keep = np.ones(points.shape[0], dtype=bool)
    keep[pairs[:, 1]] = False  # each pair is (i, j) with i < j
    return ReconstructedCloud(points[keep], chart_j[keep], source_z[keep], n_dropped)


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
    for j in range(len(e)):
        zs = fields[j].points_with_winding(1)
        if zs.size == 0:
            continue
        if zs.size > max_samples_per_chart:
            step = zs.size // max_samples_per_chart
            zs = zs[::step][:max_samples_per_chart]
        d = _cauchy_many(e, e[j], zs, squared=True)[:m].T
        # per sample, rows 2k and 2k + 1 are [Re d_k, -Im d_k], [Im d_k, Re d_k]
        jac = np.stack([d.real, -d.imag, d.imag, d.real], axis=-1).reshape(-1, 2 * m, 2)
        sv = np.linalg.svd(jac, compute_uv=False)
        if np.any(sv[:, 0] == 0.0):
            raise DerivativeVanishes("Jacobian identically zero at a sample")
        margins.extend(sv[:, -1] / sv[:, 0])
    if not margins:
        return ImmersionReport(False, False, 0.0, 0)
    mmin = float(min(margins))
    return ImmersionReport(True, mmin >= sigma_min_tol, mmin, len(margins))
