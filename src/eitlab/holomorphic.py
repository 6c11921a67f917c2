"""Trace completion, topology detection and the boundary transport map.

For a real boundary function u in the real-trace subspace of a surface with
DN map Lambda, the full holomorphic trace is recovered as
``u + i (J Lambda u + <Im>/L)``; the operator ``I + (Lambda J)^2`` vanishes
on that subspace, so its singular values detect the topology.  With one
boundary circle its range dimension equals ``1 - chi(M)``; with more it
sees only the interior periods, not the fluxes through the boundary
circles (the annulus gives 0 where ``1 - chi = 1``).  The transport map
sends traces of the reference surface to traces of a perturbed surface by
projecting the real part and completing with the perturbed Hilbert
transform.  A trace tuple is one (N, n) coefficient block, one column per
trace, and one length: its traces share one grid, and a tuple built from
traces on different grids raises ValueError.  One routine completes a
block as one coefficient array and certifies each column on its own, so a
single trace is the block with one column and a tuple is its own block.

J is the multiplier of boundary.integrate_J: products with it scale the
columns (Lambda J) or rows (J Lambda) of Lambda's Fourier-basis matrix, and
the defect D is formed on the resolved band only, at most 8 modes each
side.  One helper takes that block's SVD, and kappa, the spectral gap and
the projections all read it.  kappa sits at the largest ratio of
consecutive values of [1, singular values], 1 being |Lambda J| on a
resolved mode, and that ratio must clear the gap factor.  The completion
of a zero-mean u has the certificate residual D d_gamma u, so the
completable real traces are the kernel of D d_gamma, and Q projects onto
its complement: d_gamma^H applied to D's top kappa right singular
vectors, whose real and imaginary parts span a real space of dimension
kappa.  P = I - Q and Q are held as Q's orthonormal coefficient basis B:
P u = u - B (B^H u), with no sample or FFT taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import boundary as bc
from .boundary import BoundaryFunction, BoundaryOperator
from .errors import CertificateFailed, NoSpectralGap

__all__ = [
    "TraceTuple",
    "ProjectionPair",
    "lambda_j",
    "j_lambda",
    "defect_operator",
    "estimate_kappa",
    "build_projections",
    "complete_trace",
    "transport_immersion",
    "dn_distance",
    "certificate_residual",
]


@dataclass(frozen=True, init=False, eq=False)
class TraceTuple:
    """Boundary traces (eta_1, ..., eta_n) of a holomorphic immersion, on one grid.

    One (N, n) block of coefficient columns and one length L, built from
    BoundaryFunctions that share N and L (ValueError otherwise).  e[k] is
    trace k, a view of its column.
    """

    coeffs: np.ndarray
    length: float

    def __init__(self, traces):
        traces = tuple(traces)
        grids = sorted({(eta.n_modes, eta.length) for eta in traces})
        if len(grids) != 1:
            raise ValueError(f"a trace tuple needs traces on one grid, got (N, L) in {grids}")
        vars(self).update(coeffs=np.stack([eta.coeffs for eta in traces], axis=1),
                          length=traces[0].length)

    @classmethod
    def _from_block(cls, c: np.ndarray, length: float) -> "TraceTuple":
        e = object.__new__(cls)
        vars(e).update(coeffs=c, length=length)
        return e

    @cached_property
    def traces(self) -> tuple:
        return tuple(BoundaryFunction(c, self.length) for c in self.coeffs.T)

    def __len__(self):
        return self.coeffs.shape[1]

    def __getitem__(self, k) -> BoundaryFunction:
        return self.traces[k]

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    def to_json(self) -> dict:
        return {"traces": [t.to_json() for t in self.traces]}

    @staticmethod
    def from_json(d: dict) -> "TraceTuple":
        return TraceTuple(BoundaryFunction.from_json(t) for t in d["traces"])


@dataclass(frozen=True)
class ProjectionPair:
    """Q = B B^H and P = I - Q (completable real traces), held as Q's basis B.

    B is complex (N, kappa) with B^H B = I; its columns span kappa real functions.
    defect_floor is sigma_{kappa+1}, the largest defect singular value below
    the rank cut (0 when the band holds no more), which the certificate reads.
    """

    basis: np.ndarray
    defect_floor: float

    @property
    def kappa(self) -> int:
        return self.basis.shape[1]


_BAND_FLOOR = 0.5      # |Lambda J| on a resolved mode
_CERT_FACTOR = 10.0    # certificate tolerance over the defect or rounding floor
_GAP_FACTOR = 10.0     # defect singular-value ratio that separates the rank
_MAX_BAND = 8          # widest defect band: discretization error grows with
                       # the mode number, and rank detection needs few modes
_RANK_TOL = 1e-8       # relative singular value below which Q's basis ends


def lambda_j(lam: BoundaryOperator) -> BoundaryOperator:
    """Composite Lambda J, zero on constants."""
    j = bc._integration_symbol(lam.n_modes, lam.length)
    return BoundaryOperator(lam.coeffs * j, lam.length)


def j_lambda(lam: BoundaryOperator) -> BoundaryOperator:
    """Composite J Lambda (the Hilbert transform on the disk)."""
    j = bc._integration_symbol(lam.n_modes, lam.length)
    return BoundaryOperator(j[:, None] * lam.coeffs, lam.length)


def resolved_band(lam: BoundaryOperator) -> int:
    """Largest contiguous mode band on which Lambda J acts with magnitude >= 0.5.

    A band-limited discrete DN map annihilates modes beyond its cap; on the
    resolved band the eigenvalues of Lambda J have magnitude close to 1.
    """
    mag = np.abs(np.diag(lam.coeffs) * bc._integration_symbol(lam.n_modes, lam.length))
    half = mag.size // 2
    # modes 1 .. N/2 - 1, each with its negative
    low = np.minimum(mag[1:half], mag[-1:-half:-1]) < _BAND_FLOOR
    m_max = int(np.argmax(low)) if low.any() else low.size
    if m_max == 0:
        raise NoSpectralGap("operator resolves no boundary modes")
    return m_max


def defect_operator(lam: BoundaryOperator, max_mode: int | None = None) -> BoundaryOperator:
    """I + (Lambda J)^2 restricted to the resolved zero-mean band.

    Constants and all modes beyond max_mode are excluded: a discrete DN map
    only represents a finite band, and past it the identity is trivially
    violated.  By default the band is inferred from the operator itself.
    """
    band, block = _defect(lam, max_mode)
    b = np.zeros((lam.n_modes, lam.n_modes), dtype=complex)
    b[np.ix_(band, band)] = block
    return BoundaryOperator(b, lam.length)


def _defect(lam: BoundaryOperator,
            max_mode: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(band indices, defect block), both in the Fourier basis.

    The block is I + (Lambda J)[band, :] (Lambda J)[:, band] on the modes
    1 <= |m| <= max_mode, the only nonzero block of the projected defect.
    Lambda J is Lambda's columns scaled by J's multiplier, formed on those
    rows and columns only.
    """
    if max_mode is None:
        max_mode = min(resolved_band(lam), _MAX_BAND)
    b, j = lam.coeffs, bc._integration_symbol(lam.n_modes, lam.length)
    ms = np.abs(bc.mode_numbers(lam.n_modes))
    band = np.flatnonzero((ms >= 1) & (ms <= max_mode))
    block = np.eye(band.size) + (b[band] * j) @ (b[:, band] * j[band])
    return band, block


def _defect_spectrum(lam: BoundaryOperator
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(band indices, singular values, right singular vectors as rows) of the defect."""
    band, block = _defect(lam, None)
    _, sv, vh = np.linalg.svd(block)
    return band, sv, vh


def _floor(sv: np.ndarray, kappa: int) -> float:
    """sv[kappa], the (kappa+1)-th defect value; 0 when the band holds no more."""
    return float(sv[kappa]) if kappa < sv.size else 0.0


def _gap(sv: np.ndarray, kappa: int) -> float:
    """[1, *sv][kappa] / sv[kappa]; inf when sv[kappa] is absent or 0."""
    above = float(sv[kappa - 1]) if kappa > 0 else 1.0
    below = _floor(sv, kappa)
    return above / below if below > 0 else np.inf


def _require_gap(sv: np.ndarray, kappa: int):
    """Raise NoSpectralGap unless _gap(sv, kappa) clears _GAP_FACTOR."""
    gap = _gap(sv, kappa)
    if gap < _GAP_FACTOR:
        above = sv[kappa - 1] if kappa > 0 else 1.0
        raise NoSpectralGap(
            f"defect singular values {above:.6e} / {sv[kappa]:.6e} show no gap "
            f">= {_GAP_FACTOR} at kappa = {kappa} (ratio {gap:.3g})")


def estimate_kappa(lam: BoundaryOperator) -> int:
    """Rank of the defect operator: 1 - chi(M) when dM is one circle.

    With more circles it counts the interior periods, not the boundary fluxes.
    kappa is the k < m with the largest s_k / s_{k+1}, s = [1, sigma_1, ...,
    sigma_m] clamped below at N eps so that rounding noise shows no gap;
    NoSpectralGap names that ratio when it is below _GAP_FACTOR.
    """
    _, sv, _ = _defect_spectrum(lam)
    s = np.maximum(sv, lam.n_modes * np.finfo(float).eps)
    kappa = int(np.argmax(np.concatenate(([1.0], s[:-1])) / s))
    _require_gap(s, kappa)
    return kappa


def spectral_gap(lam: BoundaryOperator, kappa: int) -> float:
    """Ratio between the kappa-th and (kappa+1)-th defect singular values.

    For kappa = 0 the numerator is 1, the magnitude of Lambda J on a
    resolved mode.  It is inf when the band holds no (kappa+1)-th value or
    it is exactly 0.
    """
    _, sv, _ = _defect_spectrum(lam)
    return _gap(sv, kappa)


def build_projections(lam: BoundaryOperator, kappa: int, *,
                      seed: int | None = None) -> ProjectionPair:
    """Q onto the real span of d_gamma^H V_kappa, P = I - Q.

    V_kappa holds the defect's top kappa right singular vectors on the band.
    The real and imaginary parts of their images c under d_gamma^H =
    -i omega, the coefficient columns _real_part(c) and _real_part(-i c),
    have an orthonormal basis B that spans the complement of the
    completable real traces, ker(D d_gamma); Q = B B^H, returned as the
    complex (N, kappa) array B.  Raises NoSpectralGap when those 2 kappa
    real functions do not have rank exactly kappa, as when kappa splits a
    degenerate singular pair, and when the defect's kappa-th and
    (kappa+1)-th singular values are closer than estimate_kappa's gap
    factor.  The (kappa+1)-th value is kept as the pair's defect_floor, so
    kappa = 0 takes the defect's SVD too.  seed is accepted and ignored:
    nothing here is random.
    """
    n, length = lam.n_modes, lam.length
    band, sv_defect, vh = _defect_spectrum(lam)
    floor = _floor(sv_defect, kappa)
    if kappa == 0:
        return ProjectionPair(np.zeros((n, 0), dtype=complex), floor)
    c = np.zeros((n, kappa), dtype=complex)
    c[band] = np.conj(bc._derivative_symbol(n, length))[band, None] * vh[:kappa].conj().T
    u, sv, _ = np.linalg.svd(bc._real_part(np.hstack([c, -1j * c])), full_matrices=False)
    if np.count_nonzero(sv > _RANK_TOL * sv[0]) != kappa:
        raise NoSpectralGap(
            f"real and imaginary coefficients of the top {kappa} defect vectors have "
            f"singular values {np.array2string(sv, precision=3)}, not rank {kappa}")
    _require_gap(sv_defect, kappa)
    return ProjectionPair(u[:, :kappa], floor)


def _residuals(c: np.ndarray, lam: BoundaryOperator) -> np.ndarray:
    """L2 norm of Lambda Im eta + d_gamma Re eta for each coefficient column eta of c."""
    d = bc._derivative_symbol(lam.n_modes, lam.length)
    r = lam.coeffs @ bc._real_part(-1j * c) + d[:, None] * bc._real_part(c)
    return bc._sobolev_norms(r, lam.length, 0)


def certificate_residual(eta: BoundaryFunction, lam: BoundaryOperator) -> float:
    """L2 residual of the conjugate Cauchy-Riemann identity on the boundary.

    Checks Lambda Im eta = -d_gamma Re eta.  The direct identity
    d_gamma Im eta = Lambda Re eta holds by construction for completed
    traces; the conjugate one also tests that Re eta lies in the
    holomorphic subspace.
    """
    bc._check_same_grid(lam, eta)
    return float(_residuals(eta.coeffs[:, None], lam)[0])


def _complete(u: np.ndarray, im_mean: np.ndarray, lam: BoundaryOperator,
              proj: ProjectionPair, cert_tol_rel: float | None) -> np.ndarray:
    """Coefficient columns P u + i [J Lambda P u + im_mean / L], each certified.

    u is an (N, m) block of real coefficient columns and im_mean holds each
    column's integral of Im eta.  Raises CertificateFailed when any column's
    residual exceeds cert_tol_rel times its H1 norm, naming the worst one.
    """
    b, length = proj.basis, lam.length
    pre = bc._real_part(u - b @ (b.conj().T @ u))
    j = bc._integration_symbol(lam.n_modes, length)
    im = bc._real_part(j[:, None] * (lam.coeffs @ pre))
    im[0] += im_mean / length
    eta = pre + 1j * im
    if cert_tol_rel is None:
        cert_tol_rel = _CERT_FACTOR * max(proj.defect_floor,
                                          lam.n_modes * np.finfo(float).eps)
    res = _residuals(eta, lam)
    tol = cert_tol_rel * np.maximum(bc._sobolev_norms(eta, length, 1), 1e-300)
    k = int(np.argmax(res / tol))
    if res[k] > tol[k]:
        exc = CertificateFailed(
            f"conjugate certificate residual {res[k]:.3e} > {tol[k]:.3e} "
            f"(trace {k + 1} of {res.size})")
        exc.trace = k
        raise exc
    return eta


def complete_trace(re_part: BoundaryFunction, im_mean: float,
                   lam: BoundaryOperator, proj: ProjectionPair,
                   cert_tol_rel: float | None = None) -> BoundaryFunction:
    """eta = P re + i [J Lambda P re + <Im eta>/L]; certified against Lambda.

    Raises CertificateFailed when certificate_residual(eta, lam) exceeds
    cert_tol_rel ||eta||_H1.  The one rule for every surface, used unless
    cert_tol_rel is given, is _CERT_FACTOR * max(proj.defect_floor, N eps):
    the residual D d_gamma P u reaches the operator's defect floor, or the
    rounding floor of the products that form it when that is larger.
    """
    bc._check_same_grid(lam, re_part)
    eta = _complete(re_part.coeffs[:, None], np.array([im_mean]), lam, proj,
                    cert_tol_rel)
    return BoundaryFunction(eta[:, 0], lam.length)


def transport_immersion(e: TraceTuple, lam_prime: BoundaryOperator,
                        proj_prime: ProjectionPair) -> TraceTuple:
    """Each trace's real part projected by P' and completed under Lambda'.

    The tuple's coefficient block goes through one completion, each column
    keeping its integral of Im eta and certified on its own.
    """
    bc._check_same_grid(lam_prime, e)
    eta_p = _complete(bc._real_part(e.coeffs), e.length * e.coeffs[0].imag,
                      lam_prime, proj_prime, None)
    return TraceTuple._from_block(eta_p, lam_prime.length)


def dn_distance(lam: BoundaryOperator, lam_prime: BoundaryOperator) -> float:
    """t = ||Lambda' - Lambda|| from H^1 to L2 over real functions."""
    return bc.operator_norm(lam_prime - lam, 1, 0)
