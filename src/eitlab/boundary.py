"""Band-limited function calculus on the boundary circle.

Functions on the boundary are stored by their Fourier coefficients in
arclength parametrization, ``c_n = (1/N) sum_k f(l_k) exp(-2 pi i n k / N)``
on ``N`` equispaced nodes ``l_k = k L / N``, N even and at least 8.  The
coefficients are the whole representation: +, - and scalar * act on them,
and samples (values, eval_at) and mean are complex for every function, real
or not; a caller that needs real samples takes ``.real``.  Operators are
held the same way, by the Fourier-basis matrix b_jk = <A e_k, e_j> / L of
the modes e_k: apply and - act on b, and the nodal matrix F^H b F / N
(F the unnormalized DFT) is derived only for the JSON format.  One reality
rule holds for both: real coefficients mirror, c_{-k} = conj(c_k) and
b_jk = conj(b_{-j,-k}).  The operator constructor projects every b onto it,
so A(u + iv) = Au + iAv, and .real and .imag are that projection of a
function's c and -i c (_real_part), exact on the Nyquist mode.

The tangential derivative d_gamma and its inverse J act only as Fourier
multipliers on coefficients (i omega and 1 / (i omega), both zero on the
Nyquist mode), and products with J scale the rows or columns of b.
Operator 2-norms are taken in the Hartley basis cas(2 pi k l / N),
cas = cos + sin, from the top eigenvalue of a real Gram, found by Lanczos
from a fixed start: the Sobolev weights and |J|'s multiplier are even in
the mode number, and such a diagonal weight is diagonal there too
(_cas_norm).

Fourier convention: coefficients are held in FFT ordering (modes
0, 1, ..., N/2 - 1, -N/2, ..., -1).  The Nyquist coefficient stands for the
cosine cos(pi N l / L), so real samples have a real interpolant, and
padding a spectrum to more modes splits it evenly between +N/2 and -N/2.
Only this module codes that convention; every other module reaches the
Fourier basis through the helpers here.

Orientation convention: the positive tangent direction is the one for which
the disk identity ``J Lambda cos(n theta) = sin(n theta)`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import eigsh

from .errors import DimensionMismatch, NonZeroMean

__all__ = [
    "BoundaryFunction",
    "BoundaryOperator",
    "from_samples",
    "derivative_gamma",
    "integrate_J",
    "mean",
    "sobolev_norm",
    "ck_norm",
    "operator_norm",
    "operator_from_symbol",
    "operator_from_matrix",
]

_MEAN_TOL = 1e-10          # integrate_J: largest mean relative to ||f||_L2
# entries per block of a dense kernel: eval_at's phase kernel, the Cauchy
# kernel's target tiles (argument) and dn_conformal's table of mode samples
# (1 MiB real), whose spectra are about as many entries again
_EVAL_BLOCK = 1 << 17


def mode_numbers(n: int) -> np.ndarray:
    """Integer mode numbers in FFT ordering (Nyquist counted as -N/2)."""
    return np.fft.fftfreq(n, d=1.0 / n)


@dataclass(frozen=True)
class BoundaryFunction:
    """Band-limited complex function on the boundary circle."""

    coeffs: np.ndarray
    length: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1:
            raise ValueError(f"coefficients must be one-dimensional, got shape {c.shape}")
        _require_grid(c.size)
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficients")
        if not 0 < self.length < np.inf:
            raise ValueError("length must be positive and finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    def values(self, n_points: int | None = None, offset: float = 0.0) -> np.ndarray:
        """Sample values at offset + k L / n_points (default: native grid)."""
        m = self.n_modes if n_points is None else n_points
        return _samples(self.coeffs[:, None], m, self.length, offset)[0]

    def eval_at(self, l: np.ndarray) -> np.ndarray:
        """Evaluate the trigonometric interpolant at arbitrary arclength points.

        The phase kernel is built for blocks of points, at most _EVAL_BLOCK
        entries each, so its memory stays bounded for any number of points.
        """
        l = np.asarray(l, dtype=float).ravel()
        step = max(1, _EVAL_BLOCK // self.n_modes)
        out = np.empty(l.size, dtype=complex)
        for i in range(0, l.size, step):
            kern = _phase_kernel(self.n_modes, self.length, l[i:i + step])
            out[i:i + step] = kern @ self.coeffs
        return out

    @property
    def real(self) -> "BoundaryFunction":
        return BoundaryFunction(_real_part(self.coeffs), self.length)

    @property
    def imag(self) -> "BoundaryFunction":
        return BoundaryFunction(_real_part(-1j * self.coeffs), self.length)

    def __add__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        _check_same_grid(self, other)
        return BoundaryFunction(self.coeffs + other.coeffs, self.length)

    def __sub__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        _check_same_grid(self, other)
        return BoundaryFunction(self.coeffs - other.coeffs, self.length)

    def __mul__(self, scalar) -> "BoundaryFunction":
        return BoundaryFunction(self.coeffs * scalar, self.length)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {
            "n_modes": int(self.n_modes),
            "length": float(self.length),
            "coeffs_re": self.coeffs.real.tolist(),
            "coeffs_im": self.coeffs.imag.tolist(),
        }

    @staticmethod
    def from_json(d: dict) -> "BoundaryFunction":
        c = np.asarray(d["coeffs_re"], dtype=float) + 1j * np.asarray(d["coeffs_im"], dtype=float)
        return BoundaryFunction(c, float(d["length"]))


def _real_part(c: np.ndarray) -> np.ndarray:
    """Coefficients of Re f, 0.5 (c + conj(c[-k])) along axis 0, per column."""
    return 0.5 * (c + np.conj(c[-np.arange(c.shape[0])]))


def _phase_kernel(n: int, length: float, l: np.ndarray) -> np.ndarray:
    """exp(2 pi i m l / L) per point (rows) and mode m in FFT ordering (columns).

    The Nyquist column is the cosine, so kernel @ coeffs is the interpolant.
    """
    l = np.asarray(l, dtype=float)
    kern = np.exp(2j * np.pi * np.outer(l, mode_numbers(n)) / length)
    kern[:, n // 2] = np.cos(2.0 * np.pi * (n // 2) * l / length)
    return kern


def _pad_spectrum(c: np.ndarray, m: int) -> np.ndarray:
    """Zero-pad an FFT-ordered spectrum of N <= m modes to m modes, along axis 0.

    The Nyquist coefficient is split evenly between +N/2 and -N/2.
    """
    half = c.shape[0] // 2
    out = np.zeros((m,) + c.shape[1:], dtype=complex)
    out[:half] = c[:half]
    out[m - half + 1:] = c[half + 1:]
    out[half] = 0.5 * c[half]
    out[m - half] += 0.5 * c[half]
    return out


def _samples(c: np.ndarray, m: int, length: float = 1.0,
             offset: float = 0.0) -> np.ndarray:
    """Samples at offset + k L / m of each coefficient column of c, as rows.

    One inverse FFT of the padded spectrum, times each mode's phase at the
    offset (so the samples equal eval_at there); a row has its column's bits.
    """
    if m < c.shape[0]:
        raise ValueError("downsampling not supported")
    p = _pad_spectrum(c, m)
    if offset:
        p *= _phase_kernel(m, length, offset).T
    return np.ascontiguousarray((np.fft.ifft(p, axis=0) * m).T)


def _cas_norm(b: np.ndarray, w_rows: np.ndarray, w_cols: np.ndarray) -> float:
    """||diag(w_rows) b diag(w_cols)||_2 for the Fourier-basis matrix b of a real operator.

    The weights must be even in the mode number (w[k] = w[-k]).  H = V F
    with V = ((1 + i) I + (1 - i) P) / 2 unitary, P the mode reversal
    k -> -k, and even weights commute with P, so the norm is that of the
    real matrix M = diag(w_rows) h diag(w_cols), h = H A H / N = Re b - Im bP
    for the nodal matrix A (F = C - iS, so b = (C - iS) A (C + iS) / N and
    bP = (C - iS) A (C - iS) / N): the square root of the top eigenvalue of
    the real Gram M^T M, found by Lanczos (ARPACK) from a fixed start
    vector, so that equal inputs give equal bits.  The start is the ramp
    1, 2, ..., N over the modes, not a constant: a constant is even under P,
    so an operator symmetric under s -> -s whose top singular vector is odd
    under it (sin-like) would be missed.  A zero M has norm 0, which
    ARPACK cannot start from; a non-finite M raises ValueError.
    """
    n = b.shape[1]
    m = b.real - b.imag[:, -np.arange(n)]  # gathers real parts, not complex entries
    m *= w_rows[:, None]
    m *= w_cols[None, :]
    if not np.isfinite(m).all():
        raise ValueError("operator norm of a matrix with infs or NaNs")
    if not m.any():
        return 0.0
    top = eigsh(m.T @ m, k=1, v0=np.arange(1.0, n + 1),
                return_eigenvectors=False)[0]
    # the Gram is positive semi-definite; the clamp keeps the root real
    # should rounding take its top eigenvalue below 0
    return float(np.sqrt(max(top, 0.0)))


def _require_grid(n: int):
    """The grid rule of every boundary function and operator: N even, N >= 8."""
    if n < 8 or n % 2 != 0:
        raise ValueError(f"need even N >= 8, got N={n}")


def _check_same_grid(a, b):
    """Raise DimensionMismatch unless two functions or operators share N and L."""
    if a.n_modes != b.n_modes or not np.isclose(a.length, b.length):
        raise DimensionMismatch(
            f"different grids: (N={a.n_modes}, L={a.length}) vs (N={b.n_modes}, L={b.length})")


def from_samples(values: np.ndarray, length: float) -> BoundaryFunction:
    """Build a BoundaryFunction from values at N equispaced arclength nodes."""
    v = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite sample values")
    return BoundaryFunction(np.fft.fft(v) / v.size, length)


def _omega(n: int, length: float) -> np.ndarray:
    """Angular wavenumbers 2 pi n / L in FFT ordering."""
    return 2.0 * np.pi * mode_numbers(n) / length


def _derivative_symbol(n: int, length: float) -> np.ndarray:
    """i omega, with the (sign-ambiguous) Nyquist mode dropped."""
    sym = 1j * _omega(n, length)
    sym[n // 2] = 0.0
    return sym


def _integration_symbol(n: int, length: float) -> np.ndarray:
    """1 / (i omega), zero on the mean and the Nyquist mode: d_gamma's pseudo-inverse."""
    d = _derivative_symbol(n, length)
    sym = np.zeros(n, dtype=complex)
    nz = d != 0.0
    sym[nz] = 1.0 / d[nz]
    return sym


def derivative_gamma(f: BoundaryFunction) -> BoundaryFunction:
    """Tangential derivative; the (sign-ambiguous) Nyquist mode is dropped."""
    return BoundaryFunction(f.coeffs * _derivative_symbol(f.n_modes, f.length), f.length)


def integrate_J(f: BoundaryFunction) -> BoundaryFunction:
    """Antiderivative on the zero-mean subspace, normalized to zero mean.

    Raises NonZeroMean when |mean| exceeds _MEAN_TOL * ||f||_L2.  Like
    derivative_gamma it drops the Nyquist mode, so J keeps f real.
    """
    norm = np.sqrt(np.sum(np.abs(f.coeffs) ** 2) * f.length) or 1.0
    if abs(f.coeffs[0]) * f.length > _MEAN_TOL * norm:
        raise NonZeroMean(f"mean {f.coeffs[0] * f.length:.3e} exceeds {_MEAN_TOL:.1e} * ||f||")
    return BoundaryFunction(f.coeffs * _integration_symbol(f.n_modes, f.length), f.length)


def mean(f: BoundaryFunction) -> complex:
    """Integral of f over the boundary (length-weighted mean convention)."""
    return f.length * f.coeffs[0]


def sobolev_weights(n: int, length: float, s: float) -> np.ndarray:
    return (1.0 + _omega(n, length) ** 2) ** (s / 2.0)


def sobolev_norm(f: BoundaryFunction, s: float) -> float:
    return float(_sobolev_norms(f.coeffs, f.length, s))


def _sobolev_norms(c: np.ndarray, length: float, s: float) -> np.ndarray:
    """H^s norm of the coefficients c, per column (summed as a contiguous row)."""
    w = sobolev_weights(c.shape[0], length, s)
    return np.sqrt(np.sum((w * np.abs(np.ascontiguousarray(c.T))) ** 2, axis=-1) * length)


def ck_norm(f: BoundaryFunction, k: int) -> float:
    """Discrete sup norm of f and its first k tangential derivatives."""
    return float(_ck_norms(f.coeffs[:, None], f.length, k)[0])


def _ck_norms(c: np.ndarray, length: float, k: int) -> np.ndarray:
    """ck_norm of each column of an (N, m) block of coefficients c.

    Each derivative's samples are taken on 4N nodes.
    """
    if k not in (0, 1, 2):
        raise ValueError("k must be in {0, 1, 2}")
    n = c.shape[0]
    sym = _derivative_symbol(n, length)[:, None]
    best = np.zeros(c.shape[1])
    for _ in range(k + 1):
        best = np.maximum(best, np.max(np.abs(_samples(c, 4 * n)), axis=1))
        c = c * sym
    return best


@dataclass(frozen=True)
class BoundaryOperator:
    """Real operator on boundary functions: its Fourier-basis matrix (FFT ordering).

    It stores 0.5 (b + conj(b[-j, -k])), the nodal real part: b bit for bit
    when b is real, exactly Hermitian when b is.
    """

    coeffs: np.ndarray
    length: float

    def __post_init__(self):
        b = np.asarray(self.coeffs, dtype=complex)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("operator matrix must be square")
        _require_grid(b.shape[0])
        if not np.all(np.isfinite(b)):
            raise ValueError("non-finite coefficients")
        if not 0 < self.length < np.inf:
            raise ValueError("length must be positive and finite")
        # b[-j, -k] by a flip and a roll, then the arithmetic in place: each
        # fresh N x N temporary costs about as much as the arithmetic
        p = np.roll(b[::-1, ::-1], 1, axis=(0, 1))
        np.conj(p, out=p)
        p += b
        p *= 0.5
        object.__setattr__(self, "coeffs", p)

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The real nodal matrix F^H b F / N, acting on sample values."""
        return np.fft.ifft(np.fft.fft(self.coeffs, axis=1), axis=0).real

    def apply(self, f: BoundaryFunction) -> BoundaryFunction:
        _check_same_grid(self, f)
        return BoundaryFunction(self.coeffs @ f.coeffs, self.length)

    __call__ = apply

    def __sub__(self, other: "BoundaryOperator") -> "BoundaryOperator":
        _check_same_grid(self, other)
        return BoundaryOperator(self.coeffs - other.coeffs, self.length)

    def to_json(self) -> dict:
        return {
            "n": int(self.n_modes),
            "length": float(self.length),
            "matrix_row_major": self.matrix.reshape(-1).tolist(),
        }

    @staticmethod
    def from_json(d: dict) -> "BoundaryOperator":
        n = int(d["n"])
        _require_grid(n)
        m = np.asarray(d["matrix_row_major"], dtype=float).reshape(n, n)
        return operator_from_matrix(m, float(d["length"]))


def operator_from_symbol(symbol: np.ndarray, length: float) -> BoundaryOperator:
    """Circulant operator with the given Fourier multiplier (FFT ordering).

    The symbol must satisfy sigma(-n) = conj(sigma(n)) so the operator is
    real (it maps real functions to real functions).
    """
    sigma = np.asarray(symbol, dtype=complex)
    # sigma - _real_part(sigma) is half of sigma(n) - conj(sigma(-n))
    if np.max(np.abs(sigma - _real_part(sigma))) > 0.5e-12 * max(np.max(np.abs(sigma)), 1.0):
        raise ValueError("symbol does not define a real operator")
    return BoundaryOperator(np.diag(sigma), length)


def operator_from_matrix(matrix: np.ndarray, length: float) -> BoundaryOperator:
    """Operator whose nodal matrix, acting on sample values, is the real `matrix`.

    b = F A F^H / N, the inverse of BoundaryOperator.matrix.
    """
    m = np.asarray(matrix, dtype=float)
    return BoundaryOperator(np.fft.fft(np.fft.ifft(m, axis=1), axis=0), length)


def operator_norm(a: BoundaryOperator, s_from: float, s_to: float) -> float:
    """H^{s_from} -> H^{s_to} operator norm over real-valued functions.

    The largest singular value of the Sobolev-weighted Fourier-basis
    matrix; for a real operator the complexified norm coincides with the
    real-restricted one.  The weights are even in the mode number, so it is
    taken in the Hartley (cas) basis, from the top eigenvalue of one real
    Gram, found by Lanczos from a fixed start vector (_cas_norm).
    """
    n = a.n_modes
    return _cas_norm(a.coeffs, sobolev_weights(n, a.length, s_to),
                     1.0 / sobolev_weights(n, a.length, s_from))
