"""Hausdorff distance and directed deviations between point clouds in C^n."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud

__all__ = [
    "HausdorffResult",
    "hausdorff",
    "fill_distance",
    "cloud_from_complex",
]


def cloud_from_complex(points: np.ndarray) -> np.ndarray:
    """A point cloud in real coordinates, one point per row.

    A 1-D array is m points: on the line if real, in the plane if complex.
    A real (m, d) array passes through; a complex (m, n) one goes to R^{2n},
    each coordinate as its (re, im) pair.
    """
    points = np.asarray(points)
    if points.ndim < 2:
        points = points.reshape(-1, 1)
    if not np.iscomplexobj(points):
        return points.astype(float)
    return np.stack([points.real, points.imag], axis=2).reshape(points.shape[0],
                                                                2 * points.shape[1])


def _check(a: np.ndarray, b: np.ndarray):
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptyCloud("Hausdorff distance of an empty cloud")
    if a.shape[1] != b.shape[1]:
        raise ValueError("clouds live in different dimensions")


@dataclass(frozen=True)
class HausdorffResult:
    """Symmetric Hausdorff distance with directed parts and witnesses."""

    d_h: float
    r_ab: float
    r_ba: float
    witness_a: int
    witness_b: int

    def to_json(self) -> dict:
        return {"d_h": self.d_h, "r_ab": self.r_ab, "r_ba": self.r_ba,
                "witness_a": int(self.witness_a), "witness_b": int(self.witness_b)}


def hausdorff(a: np.ndarray, b: np.ndarray, brute_force: bool = False) -> HausdorffResult:
    """d_H = max(r_AB, r_BA); witnesses index the farthest probe points."""
    ar, br = cloud_from_complex(a), cloud_from_complex(b)
    _check(ar, br)
    if brute_force:
        d = np.sqrt(((br[:, None, :] - ar[None, :, :]) ** 2).sum(axis=2))
        min_b = d.min(axis=1)  # distance of each b to A
        min_a = d.min(axis=0)  # distance of each a to B
    else:
        min_b, _ = cKDTree(ar).query(br)
        min_a, _ = cKDTree(br).query(ar)
    r_ab = float(min_b.max())
    r_ba = float(min_a.max())
    wb = int(np.argmax(min_b))
    wa = int(np.argmax(min_a))
    return HausdorffResult(max(r_ab, r_ba), r_ab, r_ba, wa, wb)


def fill_distance(cloud: np.ndarray) -> float:
    """Largest nearest-neighbor spacing: the sampling bias scale of the cloud."""
    c = cloud_from_complex(cloud)
    if c.shape[0] < 2:
        return 0.0
    d, _ = cKDTree(c).query(c, k=2)
    return float(d[:, 1].max())
