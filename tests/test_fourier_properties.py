"""Property tests: the FFT boundary calculus against dense DFT references.

The references are the dense-matrix forms the FFT code replaced: the
periodic-sinc cardinal functions, the phase sum with a separate Nyquist
correction, and conjugation by scipy's DFT matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import dft
from scipy.sparse.linalg import eigsh

from eitlab import boundary as bc
from eitlab import dn as dnm
from eitlab import holomorphic as hm

TWO_PI = 2.0 * np.pi

sizes = st.sampled_from([8, 16, 32, 64, 128])
lengths = st.floats(0.5, 20.0)
seeds = st.integers(0, 2 ** 32 - 1)
property_test = settings(deadline=None, derandomize=True, database=None,
                         max_examples=25)


def sinc_interp_matrix(n, length, targets):
    """Periodic-sinc (Dirichlet) cardinal functions, Nyquist as a cosine."""
    x = np.asarray(targets, dtype=float)[:, None] - (length / n) * np.arange(n)[None, :]
    u = np.pi * x / length
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.sin(n * u) / (n * np.tan(u))
    on_period = np.isclose(np.remainder(x / length + 0.5, 1.0), 0.5,
                           rtol=0.0, atol=1e-13)
    k[on_period] = 1.0
    return k


def phase_sum(c, length, l):
    """Interpolant as the phase sum over FFT modes plus a Nyquist correction."""
    n = c.size
    ny = n // 2
    modes = np.fft.fftfreq(n, d=1.0 / n)
    out = np.exp(2j * np.pi * np.outer(l, modes) / length) @ c
    return out + 0.5 * c[ny] * (np.exp(2j * np.pi * l * ny / length)
                                - np.exp(-2j * np.pi * l * ny / length))


def dense_fourier(a):
    f = dft(a.shape[0])
    return f @ a @ f.conj().T / a.shape[0]


def dense_j(n, length):
    """J as a nodal matrix: 1 / (i omega) conjugated by scipy's DFT matrix."""
    ms = np.fft.fftfreq(n, d=1.0 / n)
    j_sym = np.zeros(n, dtype=complex)
    j_sym[1:] = length / (2j * np.pi * ms[1:])
    j_sym[n // 2] = 0.0
    f = dft(n)
    return (f.conj().T @ (j_sym[:, None] * f)).real / n


def dense_resolved_band(lam, floor=0.5):
    diag = np.abs(np.diag(dense_fourier(hm.lambda_j(lam).matrix)))
    ms = np.fft.fftfreq(lam.n_modes, d=1.0 / lam.n_modes)
    m_max = 0
    for m in range(1, lam.n_modes // 2):
        if min(diag[ms == m][0], diag[ms == -m][0]) < floor:
            break
        m_max = m
    return m_max


def targets_with_nodes(n, length, rng):
    """Random points plus every node, 0 and several periods of 0."""
    nodes = np.arange(n) * (length / n)
    periods = length * np.array([0.0, 1.0, -1.0, 3.0])
    return np.concatenate([rng.uniform(-length, 2 * length, 3 * n), nodes, periods])


class TestInterpolant:
    @property_test
    @given(n=sizes, length=lengths, seed=seeds)
    def test_real_eval_at_matches_phase_sum(self, n, length, seed):
        rng = np.random.default_rng(seed)
        f = bc.from_samples(rng.standard_normal(n), length)
        t = targets_with_nodes(n, length, rng)
        assert np.allclose(f.eval_at(t), phase_sum(f.coeffs, length, t).real,
                           rtol=0.0, atol=1e-12 * n)

    @property_test
    @given(n=sizes, length=lengths, seed=seeds)
    def test_eval_at_matches_sinc_cardinals(self, n, length, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        t = targets_with_nodes(n, length, rng)
        assert np.allclose(bc.from_samples(v, length).eval_at(t),
                           sinc_interp_matrix(n, length, t) @ v,
                           rtol=0.0, atol=1e-12 * n)

    @property_test
    @given(n=sizes, length=lengths, seed=seeds)
    def test_complex_eval_at_matches_phase_sum(self, n, length, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = bc.BoundaryFunction(c, length)
        t = targets_with_nodes(n, length, rng)
        assert np.allclose(f.eval_at(t), phase_sum(c, length, t),
                           rtol=0.0, atol=1e-12 * n)


    @pytest.mark.parametrize("n", [2048, 4096])
    def test_eval_at_in_blocks_matches_phase_sum(self, n):
        # more points than one block of the phase kernel holds, with a
        # partial last block
        rng = np.random.default_rng(n)
        c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)
        t = rng.uniform(-5.0, 10.0, 3 * (1 << 17) // n + 7)
        got = bc.BoundaryFunction(c, 5.0).eval_at(t)
        assert got.shape == t.shape
        assert np.abs(got - phase_sum(c, 5.0, t)).max() <= 1e-12


class TestShiftedSampling:
    @pytest.mark.parametrize("factor", [1, 2, 8, 32])
    @pytest.mark.parametrize("real", [True, False])
    @property_test
    @given(n=sizes, length=lengths, frac=st.floats(0.0, 1.0), seed=seeds)
    def test_matches_eval_at(self, factor, real, n, length, frac, seed):
        rng = np.random.default_rng(seed)
        if real:
            f = bc.from_samples(rng.standard_normal(n), length)
        else:
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            f = bc.BoundaryFunction(c / np.sqrt(n), length)
        assert (np.abs(f.values().imag).max() <= 1e-13) == real
        assert abs(f.coeffs[n // 2]) > 0.0
        m = factor * n
        for periods in (-3.0, -1.0, 0.0, 1.0, 2.0):
            offset = (periods + frac) * length
            got = f.values(m, offset=offset)
            want = f.eval_at(offset + np.arange(m) * (length / m))
            assert np.abs(got - want).max() <= 1e-12
            # the Nyquist cosine keeps a real function real off the nodes
            assert not real or np.abs(got.imag).max() <= 1e-12


class TestRealityRule:
    @property_test
    @given(n=sizes, length=lengths, frac=st.floats(0.0, 1.0), seed=seeds)
    def test_real_and_imag_mirror_the_coefficients(self, n, length, frac, seed):
        """.real and .imag of a complex spectrum with a nonzero Nyquist
        coefficient: exactly mirrored coefficients, c_-k = conj(c_k), whose
        samples are those of f's real and imaginary parts on every grid."""
        rng = np.random.default_rng(seed)
        c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(n)
        f = bc.BoundaryFunction(c, length)
        assert f.coeffs[n // 2].real != 0.0 and f.coeffs[n // 2].imag != 0.0
        mirror = -np.arange(n)
        for part in (f.real, f.imag):
            assert np.array_equal(part.coeffs, np.conj(part.coeffs[mirror]))
        for m, offset in ((n, 0.0), (4 * n, 0.0), (n, frac * length),
                          (8 * n, (frac - 2.0) * length)):
            v = f.values(m, offset=offset)
            tol = 1e-15 * np.abs(v).max()
            assert np.abs(f.real.values(m, offset=offset) - v.real).max() <= tol
            assert np.abs(f.imag.values(m, offset=offset) - v.imag).max() <= tol

    @property_test
    @given(n=sizes, length=lengths, seed=seeds)
    def test_operator_constructor_makes_b_real(self, n, length, seed):
        """From any complex b the constructor keeps an exactly real operator,
        b_jk = conj(b_-j,-k), which apply, .matrix and operator_norm read alike."""
        rng = np.random.default_rng(seed)
        op = bc.BoundaryOperator(rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n)), length)
        r = -np.arange(n)
        assert np.array_equal(op.coeffs, np.conj(op.coeffs[np.ix_(r, r)]))
        f = bc.BoundaryFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                length)
        want = op.matrix @ f.values()
        assert np.abs(op.apply(f).values() - want).max() <= 1e-13 * np.abs(want).max()
        ref = np.linalg.norm(op.coeffs, 2)
        assert abs(bc.operator_norm(op, 0, 0) - ref) <= 1e-13 * ref


class TestResampler:
    @property_test
    @given(n=sizes, factor=st.sampled_from([2, 4]), length=lengths, seed=seeds)
    def test_upsample_matches_interpolant(self, n, factor, length, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n)
        fine = np.arange(factor * n) * (length / (factor * n))
        expect = sinc_interp_matrix(n, length, fine) @ v
        assert np.allclose(bc.from_samples(v, length).values(factor * n), expect,
                           rtol=0.0, atol=1e-12 * n)


class TestFourierConjugation:
    @property_test
    @given(n=sizes, length=lengths, s_from=st.sampled_from([0, 1, 2, 3]),
           s_to=st.sampled_from([0, 1, 2]), seed=seeds)
    def test_operator_norm_matches_dense(self, n, length, s_from, s_to, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        w_from = bc.sobolev_weights(n, length, s_from)
        w_to = bc.sobolev_weights(n, length, s_to)
        ref = np.linalg.norm(w_to[:, None] * dense_fourier(a) / w_from[None, :], 2)
        got = bc.operator_norm(bc.operator_from_matrix(a, length), s_from, s_to)
        assert abs(got - ref) <= 1e-12 * ref

    @property_test
    @given(n=sizes, length=lengths, seed=seeds)
    def test_nodal_matrix_round_trip(self, n, length, seed):
        """For a real nodal matrix m, .matrix returns m, apply acts as m on the
        samples of real and complex functions, and the JSON file keeps b."""
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        op = bc.operator_from_matrix(m, length)
        assert np.abs(op.matrix - m).max() <= 1e-13 * np.abs(m).max()
        u, v = rng.standard_normal((2, n))
        for samples in (u, u + 1j * v):
            f = bc.from_samples(samples, length)
            want = bc.from_samples(m @ f.values(), length).coeffs
            assert np.abs(op.apply(f).coeffs - want).max() <= 1e-13 * np.abs(want).max()
        back = bc.BoundaryOperator.from_json(op.to_json())
        assert np.abs(back.coeffs - op.coeffs).max() <= 1e-13 * np.abs(op.coeffs).max()

    @property_test
    @given(n=sizes, seed=seeds, spread=st.floats(0.0, 8.0))
    def test_cas_norm_matches_fourier_svd(self, n, seed, spread):
        """The top-eigenvalue norm against the SVD of diag(w) b diag(w'), b the
        Fourier-basis matrix F A F^H / N of a real nodal matrix A, for weights
        even in the mode number spanning exp(+-spread)."""
        rng = np.random.default_rng(seed)
        b = dense_fourier(rng.standard_normal((n, n)))
        half = np.abs(bc.mode_numbers(n)).astype(int)
        w_rows, w_cols = np.exp(rng.uniform(-spread, spread, (2, n // 2 + 1)))[:, half]
        ref = np.linalg.norm(w_rows[:, None] * b * w_cols[None, :], 2)
        assert abs(bc._cas_norm(b, w_rows, w_cols) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_cas_norm_of_zero_is_zero(self, n):
        w = np.abs(bc.mode_numbers(n)) + 1.0
        assert bc._cas_norm(np.zeros((n, n), dtype=complex), w, 1.0 / w) == 0.0

    @pytest.mark.parametrize("s_from,s_to", [(1, 0), (3, 2)])
    def test_cas_norm_on_nearly_degenerate_sweep_difference(self, s_from, s_to):
        """t and t_alt of the sweep's s = 0.01 record, whose top two
        singular values differ by 1.5e-4 relative, against a dense SVD."""
        n = 256
        diff = dnm.dn_conformal(dnm.ConformalDomain((0.01,)), n) - dnm.dn_disk(n)
        w_rows = bc.sobolev_weights(n, TWO_PI, s_to)
        w_cols = 1.0 / bc.sobolev_weights(n, TWO_PI, s_from)
        sv = np.linalg.svd(w_rows[:, None] * diff.coeffs * w_cols[None, :],
                           compute_uv=False)
        assert sv[0] / sv[1] < 1.0002
        got = bc._cas_norm(diff.coeffs, w_rows, w_cols)
        assert abs(got - sv[0]) <= 1e-14 * sv[0]
        assert bc._cas_norm(diff.coeffs, w_rows, w_cols) == got

    def test_cas_norm_sees_an_odd_top_singular_vector(self):
        """An operator symmetric under s -> -s whose top singular vector is
        sin s, 1.5e-4 above the cos s one.  Lanczos from a constant start,
        even under that reflection, returns the even top, 256.0000 against
        256.0384; the ramp start finds the odd one."""
        n = 256
        l = np.arange(n) * (TWO_PI / n)
        ks = np.arange(1, n // 2)
        a, b = 1.0 + 0.5 * np.cos(ks) ** 2, 1.0 + 0.5 * np.sin(1.3 * ks) ** 2
        a[0], b[0] = 2.0, 2.0 * 1.00015
        c, s = np.cos(np.outer(l, ks)), np.sin(np.outer(l, ks))
        op = bc.operator_from_matrix((c * a) @ c.T + (s * b) @ s.T, TWO_PI)
        ref = np.linalg.norm(op.matrix, 2)
        ones = np.ones(n)
        assert abs(bc._cas_norm(op.coeffs, ones, ones) - ref) <= 1e-14 * ref
        h = op.coeffs.real - op.coeffs[:, -np.arange(n)].imag
        top = eigsh(h.T @ h, k=1, v0=np.full(n, n ** -0.5), return_eigenvectors=False)[0]
        assert np.sqrt(top) < (1.0 - 1e-4) * ref

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cas_norm_refuses_non_finite(self, bad):
        n = 16
        b = dense_fourier(np.eye(n))
        b[3, 5] = bad
        w = np.ones(n)
        with pytest.raises(ValueError, match="infs or NaNs"):
            bc._cas_norm(b, w, w)

    @property_test
    @given(n=sizes, length=lengths, seed=seeds, data=st.data())
    def test_band_projection_matches_dense(self, n, length, seed, data):
        """defect_operator against Pi (I + (Lambda J)^2) Pi from dense DFTs."""
        max_mode = data.draw(st.integers(1, n // 2 - 1))
        rng = np.random.default_rng(seed)
        lam = dnm.dn_disk(n, length).matrix + rng.standard_normal((n, n)) / n
        ms = np.fft.fftfreq(n, d=1.0 / n)
        band = ((np.abs(ms) >= 1) & (np.abs(ms) <= max_mode)).astype(float)
        f = dft(n)
        pi0 = (f.conj().T @ (band[:, None] * f)).real / n
        lj = lam @ dense_j(n, length)
        ref = pi0 @ (np.eye(n) + lj @ lj) @ pi0
        got = hm.defect_operator(bc.operator_from_matrix(lam, length), max_mode).matrix
        assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)


class TestResolvedBand:
    @property_test
    @given(n=sizes, length=lengths)
    def test_disk(self, n, length):
        lam = dnm.dn_disk(n, length)
        assert hm.resolved_band(lam) == dense_resolved_band(lam) == n // 2 - 1

    @settings(deadline=None, derandomize=True, database=None, max_examples=8)
    @given(a2=st.floats(0.0, 0.2), a3=st.floats(0.0, 0.1),
           n=st.sampled_from([32, 64]))
    def test_conformal(self, a2, a3, n):
        lam = dnm.dn_conformal(dnm.ConformalDomain((a2, a3)), n)
        assert hm.resolved_band(lam) == dense_resolved_band(lam)

    @settings(deadline=None, derandomize=True, database=None, max_examples=6)
    @given(res=st.integers(3, 6), n=st.sampled_from([32, 64]))
    def test_fem(self, res, n):
        lam = dnm.dn_fem(dnm.unit_disk_mesh(res), n_modes=n)
        assert hm.resolved_band(lam) == dense_resolved_band(lam)


class TestDiskHilbertTransform:
    @property_test
    @given(n=st.integers(4, 128).map(lambda k: 2 * k), length=lengths)
    def test_j_lambda_is_diagonal_hilbert_symbol(self, n, length):
        """J Lambda on the disk is diag(-i sgn m), zero on the mean and on the
        Nyquist mode, whatever the perimeter."""
        jl = hm.j_lambda(dnm.dn_disk(n, length)).coeffs
        want = -1j * np.sign(bc.mode_numbers(n))
        want[n // 2] = 0.0
        assert np.array_equal(jl, np.diag(np.diag(jl)))
        assert np.abs(np.diag(jl) - want).max() <= 2e-15

    @property_test
    @given(n=st.integers(4, 128).map(lambda k: 2 * k), length=lengths, seed=seeds)
    def test_j_lambda_squares_to_minus_identity(self, n, length, seed):
        """(J Lambda)^2 = -I on real zero-mean functions with no Nyquist mode."""
        jl = hm.j_lambda(dnm.dn_disk(n, length))
        c = bc.from_samples(np.random.default_rng(seed).standard_normal(n), length).coeffs
        c[0] = c[n // 2] = 0.0
        f = bc.BoundaryFunction(c, length)
        got = jl.apply(jl.apply(f)).coeffs
        assert np.abs(got + c).max() <= 2e-15 * np.abs(c).max()
