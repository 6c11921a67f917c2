"""Trace completion, topology detection and the boundary transport map.

For a real boundary function u in the real-trace subspace of a surface with
DN map Lambda, the full holomorphic trace is recovered as
``u + i (J Lambda u + <Im>/L)``; the operator ``I + (Lambda J)^2`` vanishes
on that subspace and its range dimension equals ``1 - chi(M)``, so its
singular values detect the topology.  The transport map sends traces of the
reference surface to traces of a perturbed surface by projecting the real
part and completing with the perturbed Hilbert transform.

J is the multiplier of boundary.integrate_J: products with it scale the
columns (Lambda J) or rows (J Lambda) of Lambda's Fourier-basis matrix, and
the defect is formed on the 2 * max_mode band modes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boundary as bc
from .boundary import BoundaryFunction, BoundaryOperator
from .errors import (
    CertificateFailed,
    DimensionMismatch,
    NoSpectralGap,
    RankDeficientProbes,
)

__all__ = [
    "TraceTuple",
    "ProjectionPair",
    "lambda_j",
    "j_lambda",
    "defect_operator",
    "estimate_kappa",
    "build_projections",
    "complete_trace",
    "beta_gamma",
    "transport_immersion",
    "dn_distance",
    "certificate_residual",
]


@dataclass(frozen=True)
class TraceTuple:
    """Boundary traces (eta_1, ..., eta_n) of a holomorphic immersion."""

    traces: tuple
    source_dn: BoundaryOperator | None = None

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))

    def __len__(self):
        return len(self.traces)

    def __getitem__(self, k) -> BoundaryFunction:
        return self.traces[k]

    @property
    def length(self) -> float:
        return self.traces[0].length

    @property
    def n_modes(self) -> int:
        return self.traces[0].n_modes

    def verify(self, cert_tol_rel: float = 1e-8):
        """Check the holomorphy certificate d_gamma Im eta = Lambda Re eta."""
        if self.source_dn is None:
            raise ValueError("no DN operator attached")
        for k, eta in enumerate(self.traces):
            r = certificate_residual(eta, self.source_dn, direct=True)
            tol = cert_tol_rel * bc.sobolev_norm(eta, 1)
            if r > tol:
                raise CertificateFailed(
                    f"trace {k}: residual {r:.3e} > {tol:.3e}")

    def to_json(self) -> dict:
        return {"traces": [t.to_json() for t in self.traces]}

    @staticmethod
    def from_json(d: dict, source_dn: BoundaryOperator | None = None) -> "TraceTuple":
        return TraceTuple(tuple(BoundaryFunction.from_json(t) for t in d["traces"]),
                          source_dn)


@dataclass(frozen=True)
class ProjectionPair:
    """Complementary projections P (holomorphic real traces) and Q (defect)."""

    p: BoundaryOperator
    q: BoundaryOperator
    kappa: int
    basis_h: tuple
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "p": self.p.to_json(),
            "q": self.q.to_json(),
            "kappa": int(self.kappa),
            "seed": self.seed,
            "basis_h": [h.to_json() for h in self.basis_h],
        }


_BAND_FLOOR = 0.5      # |Lambda J| on a resolved mode
_GAP_FACTOR = 10.0     # defect singular-value ratio that separates the rank


def _lj_hat(lam: BoundaryOperator) -> np.ndarray:
    """Lambda J in the Fourier basis: Lambda's columns scaled by J's multiplier."""
    return bc._fourier_matrix(lam.matrix) * bc._integration_symbol(lam.n_modes, lam.length)


def lambda_j(lam: BoundaryOperator) -> BoundaryOperator:
    """Composite Lambda J, zero on constants."""
    return bc.operator_from_coefficients(_lj_hat(lam), lam.length, "LambdaJ")


def j_lambda(lam: BoundaryOperator) -> BoundaryOperator:
    """Composite J Lambda (the Hilbert transform on the disk)."""
    j = bc._integration_symbol(lam.n_modes, lam.length)
    return bc.operator_from_coefficients(j[:, None] * bc._fourier_matrix(lam.matrix),
                                         lam.length, "JLambda")


def resolved_band(lam: BoundaryOperator) -> int:
    """Largest contiguous mode band on which Lambda J acts with magnitude >= 0.5.

    A band-limited discrete DN map annihilates modes beyond its cap; on the
    resolved band the eigenvalues of Lambda J have magnitude close to 1.
    """
    return _resolved_band(np.diag(_lj_hat(lam)))


def _resolved_band(lj_diag: np.ndarray) -> int:
    mag = np.abs(lj_diag)
    m_max = 0
    for m in range(1, mag.size // 2):
        if min(mag[m], mag[-m]) < _BAND_FLOOR:
            break
        m_max = m
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
    return bc.operator_from_coefficients(b, lam.length, "defect")


def _defect(lam: BoundaryOperator,
            max_mode: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(band indices, defect block), both in the Fourier basis.

    The block is I + (Lambda J)[band, :] (Lambda J)[:, band] on the modes
    1 <= |m| <= max_mode, the only nonzero block of the projected defect.
    """
    lj = _lj_hat(lam)
    if max_mode is None:
        # default to the well-resolved core: discretization error grows with
        # mode number, and rank detection only needs a modest band
        max_mode = min(_resolved_band(np.diag(lj)), 8)
    ms = np.abs(bc.mode_numbers(lam.n_modes))
    band = np.flatnonzero((ms >= 1) & (ms <= max_mode))
    block = np.eye(band.size) + lj[band, :] @ lj[:, band]
    return band, block


def _defect_spectrum(lam: BoundaryOperator, max_mode: int | None) -> tuple[np.ndarray, float]:
    """Defect singular values and the rank scale max(||Lambda J||_2, 1).

    J's multiplier is a unitary diagonal times |J|'s, which is even in the
    mode number, so ||Lambda J||_2 = ||Lambda |J| ||_2, taken from the top
    eigenvalue of a real Gram (boundary._cas_norm).
    """
    _, block = _defect(lam, max_mode)
    sv = np.linalg.svd(block, compute_uv=False)
    j_abs = np.abs(bc._integration_symbol(lam.n_modes, lam.length))
    return sv, max(bc._cas_norm(lam.matrix, np.ones(lam.n_modes), j_abs), 1.0)


def estimate_kappa(lam: BoundaryOperator, tau_rank: float = 1e-3,
                   max_mode: int | None = None) -> int:
    """Rank of the defect operator = 1 - chi(M)."""
    if tau_rank <= 0:
        raise ValueError("tau_rank must be positive")
    sv, scale = _defect_spectrum(lam, max_mode)
    thresh = tau_rank * scale
    kappa = int(np.sum(sv > thresh))
    above = sv[kappa - 1] if kappa > 0 else None
    below = sv[kappa] if kappa < sv.size else 0.0
    ref = above if above is not None else thresh
    if below > 0 and ref / below < _GAP_FACTOR:
        raise NoSpectralGap(
            f"singular values {ref:.3e} / {below:.3e} show no gap >= {_GAP_FACTOR}")
    return kappa


def spectral_gap(lam: BoundaryOperator, kappa: int,
                 max_mode: int | None = None) -> float:
    """Ratio between the kappa-th and (kappa+1)-th defect singular values.

    It is inf when the band holds no (kappa+1)-th value or it is exactly 0.
    """
    sv, scale = _defect_spectrum(lam, max_mode)
    num = sv[kappa - 1] if kappa > 0 else scale
    below = sv[kappa] if kappa < sv.size else 0.0
    return float(num / below) if below > 0 else np.inf


def _random_probes(n: int, length: float, count: int, seed: int) -> list[BoundaryFunction]:
    rng = np.random.default_rng(seed)
    cap = max(2, n // 8)
    probes = []
    for _ in range(count):
        amp = rng.standard_normal(cap) + 1j * rng.standard_normal(cap)
        modes = {m: amp[m - 1] for m in range(1, cap + 1)}
        modes.update({-m: np.conj(a) for m, a in modes.items()})
        probes.append(bc.from_modes(n, length, modes))
    return probes


def build_projections(lam: BoundaryOperator, kappa: int,
                      probe_f: list[BoundaryFunction] | None = None,
                      seed: int = 7) -> ProjectionPair:
    """Projections P, Q from probe images h = J [I + (Lambda J)^2] d_gamma f."""
    n = lam.n_modes
    length = lam.length
    if kappa == 0:
        return ProjectionPair(bc.identity_operator(n, length),
                              bc.zero_operator(n, length), 0, (), seed)
    if probe_f is None:
        probe_f = _random_probes(n, length, 3 * kappa, seed)
    if len(probe_f) < 3 * kappa:
        raise RankDeficientProbes(f"need at least {3 * kappa} probes")
    lj = lambda_j(lam).matrix
    v = np.stack([bc.derivative_gamma(f).values() for f in probe_f], axis=1)
    core_v = v + lj @ (lj @ v)
    h_mat = np.stack([bc.integrate_J(bc.from_samples(c, length)).values().real
                      for c in core_v.T], axis=1)
    u, sv, _ = np.linalg.svd(h_mat, full_matrices=False)
    if sv[kappa - 1] < 1e-10 * sv[0] or (kappa < sv.size and sv[kappa] > 0.3 * sv[kappa - 1]):
        raise RankDeficientProbes(
            f"probe singular values {sv[:kappa + 1]} do not reveal rank {kappa}")
    basis = u[:, :kappa]
    q_mat = basis @ basis.T
    q = BoundaryOperator(q_mat, length, "Q")
    p = BoundaryOperator(np.eye(n) - q_mat, length, "P")
    basis_h = tuple(bc.from_samples(basis[:, i], length) for i in range(kappa))
    return ProjectionPair(p, q, kappa, basis_h, seed)


def certificate_residual(eta: BoundaryFunction, lam: BoundaryOperator,
                         direct: bool = False) -> float:
    """L2 residual of a Cauchy-Riemann identity on the boundary.

    direct=True checks d_gamma Im eta = Lambda Re eta (holds by construction
    for completed traces); direct=False checks the conjugate identity
    Lambda Im eta = -d_gamma Re eta, which additionally tests that Re eta
    lies in the holomorphic subspace.
    """
    re = eta.real
    im = eta.imag
    if direct:
        r = bc.derivative_gamma(im) - lam.apply(re)
    else:
        r = lam.apply(im) + bc.derivative_gamma(re)
    return bc.sobolev_norm(r, 0)


def complete_trace(re_part: BoundaryFunction, im_mean: float,
                   lam: BoundaryOperator, proj: ProjectionPair,
                   cert_tol_rel: float = 1e-8) -> BoundaryFunction:
    """eta = P re + i [J Lambda P re + <Im eta>/L]; certified against Lambda."""
    pre = proj.p.apply(re_part)
    j = bc._integration_symbol(lam.n_modes, lam.length)
    hil = BoundaryFunction(lam.apply(pre).coeffs * j, lam.length)
    eta_v = pre.values().real + 1j * (hil.values().real + im_mean / lam.length)
    eta = bc.from_samples(eta_v, lam.length)
    res = certificate_residual(eta, lam, direct=False)
    tol = cert_tol_rel * max(bc.sobolev_norm(eta, 1), 1e-300)
    if res > tol:
        raise CertificateFailed(
            f"conjugate certificate residual {res:.3e} > {tol:.3e}")
    return eta


def beta_gamma(eta: BoundaryFunction, lam_prime: BoundaryOperator,
               proj_prime: ProjectionPair, cert_tol_rel: float = 1e-8) -> BoundaryFunction:
    """Transported trace: P' Re eta completed with the perturbed DN map."""
    im_mean = bc.mean(eta.imag)
    return complete_trace(eta.real, float(np.real(im_mean)), lam_prime,
                          proj_prime, cert_tol_rel)


def transport_immersion(e: TraceTuple, lam_prime: BoundaryOperator,
                        proj_prime: ProjectionPair,
                        cert_tol_rel: float = 1e-8) -> TraceTuple:
    """Componentwise transport of an immersion's boundary traces."""
    return TraceTuple(
        tuple(beta_gamma(eta, lam_prime, proj_prime, cert_tol_rel) for eta in e.traces),
        source_dn=lam_prime)


def dn_distance(lam: BoundaryOperator, lam_prime: BoundaryOperator) -> float:
    """t = ||Lambda' - Lambda|| from H^1 to L2 over real functions."""
    if lam.n_modes != lam_prime.n_modes or not np.isclose(lam.length, lam_prime.length):
        raise DimensionMismatch("DN operators on different grids")
    return bc.operator_norm(lam_prime - lam, 1, 0)
