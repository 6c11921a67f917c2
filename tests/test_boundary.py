"""Spectral boundary calculus: functions, operators, norms, interpolation."""

import numpy as np
import pytest

from eitlab import boundary as bc
from eitlab import dn as dnm
from eitlab.errors import DimensionMismatch, NonZeroMean

TWO_PI = 2.0 * np.pi


def grid(n, length=TWO_PI):
    return np.arange(n) * (length / n)


class TestBoundaryFunction:
    def test_fourier_coefficients_match_dft(self):
        n = 64
        th = grid(n)
        f = bc.from_samples(3.0 + np.cos(2 * th) - 4 * np.sin(5 * th), TWO_PI)
        assert abs(f.coeffs[0] - 3.0) < 1e-14
        assert abs(f.coeffs[2] - 0.5) < 1e-14
        assert abs(f.coeffs[-5] - (-2j)) < 1e-14

    def test_values_roundtrip(self):
        n = 32
        rng = np.random.default_rng(0)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = bc.from_samples(v, 5.0)
        assert np.allclose(f.values(), v, atol=1e-13)

    def test_upsampling_is_exact_for_band_limited(self):
        n = 32
        th = grid(n)
        f = bc.from_samples(np.cos(3 * th), TWO_PI)
        th_fine = grid(4 * n)
        assert np.allclose(f.values(4 * n), np.cos(3 * th_fine), atol=1e-13)

    def test_eval_at_arbitrary_points(self):
        n = 64
        f = bc.from_samples(np.sin(4 * grid(n)), TWO_PI)
        xs = np.array([0.1, 1.7, 5.5])
        assert np.allclose(f.eval_at(xs), np.sin(4 * xs), atol=1e-12)

    def test_eval_at_points_very_close_to_nodes(self):
        # regression: targets within 1e-5 * L of a node must not snap to it
        n = 2048
        f = bc.from_samples(np.cos(5 * grid(n)), TWO_PI)
        h = TWO_PI / n
        xs = np.array([100 * h + 3e-5, 7 * h - 1e-6])
        assert np.allclose(f.eval_at(xs), np.cos(5 * xs), atol=1e-11)

    def test_arithmetic(self):
        n = 16
        th = grid(n)
        f = bc.from_samples(np.cos(th), TWO_PI)
        g = bc.from_samples(np.sin(th), TWO_PI)
        h = f + g - 2.0 * f
        assert np.allclose(h.values(), np.sin(th) - np.cos(th), atol=1e-13)

    def test_length_mismatch_raises(self):
        f = bc.from_samples(np.ones(8), TWO_PI)
        g = bc.from_samples(np.ones(8), 1.0)
        with pytest.raises(DimensionMismatch):
            _ = f + g

    def test_two_dimensional_coefficients_raise(self):
        # a (4, 2) array has 8 entries, but is not an 8-mode function
        with pytest.raises(ValueError, match="one-dimensional, got shape"):
            bc.BoundaryFunction(np.zeros((4, 2), dtype=complex), TWO_PI)
        with pytest.raises(ValueError, match="one-dimensional"):
            bc.BoundaryFunction.from_json({"length": TWO_PI,
                                           "coeffs_re": [[0, 0], [1, 0], [0, 0], [0, 0]],
                                           "coeffs_im": [[0, 0]] * 4})

    def test_json_roundtrip(self):
        n = 16
        f = bc.from_samples(np.exp(1j * grid(n)), TWO_PI)
        g = bc.BoundaryFunction.from_json(f.to_json())
        assert np.allclose(f.coeffs, g.coeffs)
        assert g.length == f.length

    def test_real_part_extraction(self):
        n = 32
        th = grid(n)
        f = bc.from_samples(np.exp(1j * th), TWO_PI)
        assert np.allclose(f.real.values(), np.cos(th), atol=1e-13)
        assert np.allclose(f.imag.values(), np.sin(th), atol=1e-13)


class TestDerivativeAndIntegration:
    def test_derivative_of_sin(self):
        n = 64
        th = grid(n)
        f = bc.from_samples(np.sin(3 * th), TWO_PI)
        df = bc.derivative_gamma(f)
        assert np.allclose(df.values(), 3 * np.cos(3 * th), atol=1e-11)

    def test_derivative_respects_length(self):
        n = 64
        length = 3.0
        x = grid(n, length)
        f = bc.from_samples(np.sin(2 * np.pi * x / length), length)
        df = bc.derivative_gamma(f)
        expect = (2 * np.pi / length) * np.cos(2 * np.pi * x / length)
        assert np.allclose(df.values(), expect, atol=1e-11)

    def test_J_inverts_derivative_on_zero_mean(self):
        n = 64
        rng = np.random.default_rng(1)
        c = np.zeros(n, dtype=complex)
        for m in range(1, 10):
            a = rng.standard_normal() + 1j * rng.standard_normal()
            c[m], c[-m] = a, np.conj(a)
        f = bc.BoundaryFunction(c, TWO_PI)
        g = bc.integrate_J(bc.derivative_gamma(f))
        assert np.allclose(g.values(), f.values(), atol=1e-12)

    def test_J_drops_the_nyquist_mode(self):
        # J and d_gamma share one Nyquist convention: both drop the mode, so
        # J of a real function is real and d_gamma J removes exactly the
        # mean and the Nyquist part (a Nyquist mode kept by J puts -0.0625i
        # into the samples here)
        n = 16
        th = grid(n)
        f = bc.from_samples(np.cos(3 * th) + 0.5 * np.cos(8 * th), TWO_PI)
        g = bc.integrate_J(f)
        assert np.abs(g.values().imag).max() <= 1e-15
        assert np.allclose(g.values(), np.sin(3 * th) / 3, atol=1e-14)
        back = bc.derivative_gamma(g)
        assert np.abs(back.values() - np.cos(3 * th)).max() < 1e-14

    def test_J_requires_zero_mean(self):
        f = bc.from_samples(np.ones(16), TWO_PI)
        with pytest.raises(NonZeroMean):
            bc.integrate_J(f)

    def test_mean_is_the_integral(self):
        n = 32
        f = bc.from_samples(3.0 + np.cos(grid(n)), TWO_PI)
        assert abs(bc.mean(f) - 3.0 * TWO_PI) < 1e-12


class TestNorms:
    def test_l2_norm_of_cos(self):
        n = 64
        f = bc.from_samples(np.cos(grid(n)), TWO_PI)
        # ||cos||_L2^2 = pi; stored as sqrt(L * sum |c|^2) with c = 1/2, 1/2
        assert abs(bc.sobolev_norm(f, 0) - np.sqrt(np.pi)) < 1e-12

    def test_h1_weights(self):
        n = 64
        f = bc.from_samples(np.cos(3 * grid(n)), TWO_PI)
        expect = np.sqrt(np.pi * (1 + 9.0))
        assert abs(bc.sobolev_norm(f, 1) - expect) < 1e-12

    def test_ck_norm(self):
        n = 128
        f = bc.from_samples(np.sin(3 * grid(n)), TWO_PI)
        # sup|f| = 1, sup|f'| = 3, sup|f''| = 9
        assert abs(bc.ck_norm(f, 0) - 1.0) < 1e-10
        assert abs(bc.ck_norm(f, 2) - 9.0) < 1e-9

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_ck_norms_of_a_block_equal_per_function_loop(self, k):
        # the per-function loop: sup of |f^(j)| on 4N samples, j = 0..k; the
        # block takes the same FFTs and products column by column, so equal
        rng = np.random.default_rng(5)
        n, length = 64, 5.0
        fs = [bc.from_samples(rng.standard_normal(n) + 1j * rng.standard_normal(n), length)
              for _ in range(3)]
        loop = []
        for g in fs:
            best = 0.0
            for _ in range(k + 1):
                best = max(best, float(np.max(np.abs(g.values(4 * n)))))
                g = bc.derivative_gamma(g)
            loop.append(best)
        block = np.stack([f.coeffs for f in fs], axis=1)
        assert np.array_equal(bc._ck_norms(block, length, k), loop)
        assert [bc.ck_norm(f, k) for f in fs] == loop

    @pytest.mark.parametrize("s_from, s_to", [(1, 0), (3, 2)], ids=["t", "t_alt"])
    def test_hartley_matrix_equals_gathered_complex_form(self, s_from, s_to, monkeypatch):
        # on a sweep's s = 0.08 difference at N = 256, M built from real
        # parts and weighted in place has the bits of gathering the complex
        # b and weighting by products: the Gram and the norm are equal
        n = 256
        a = dnm.dn_conformal(dnm.ConformalDomain((0.08,)), n) - dnm.dn_disk(n)
        w_rows = bc.sobolev_weights(n, a.length, s_to)
        w_cols = 1.0 / bc.sobolev_weights(n, a.length, s_from)
        h = a.coeffs.real - a.coeffs[:, -np.arange(n)].imag
        m = w_rows[:, None] * h * w_cols[None, :]
        grams, eigsh = [], bc.eigsh
        monkeypatch.setattr(bc, "eigsh", lambda g, **kw: grams.append(g) or eigsh(g, **kw))
        got = bc.operator_norm(a, s_from, s_to)
        assert len(grams) == 1 and np.array_equal(grams[0], m.T @ m)
        top = eigsh(m.T @ m, k=1, v0=np.arange(1.0, n + 1), return_eigenvectors=False)[0]
        assert got == float(np.sqrt(top))

    def test_norm_monotone_in_order(self):
        rng = np.random.default_rng(2)
        f = bc.from_samples(rng.standard_normal(64), TWO_PI)
        assert bc.sobolev_norm(f, 0) <= bc.sobolev_norm(f, 1) <= bc.sobolev_norm(f, 3)


class TestOperators:
    def test_symbol_operator_applies_multiplier(self):
        n = 32
        sym = np.abs(bc.mode_numbers(n)).astype(complex)
        op = bc.operator_from_symbol(sym, TWO_PI)
        th = grid(n)
        f = bc.from_samples(np.cos(5 * th), TWO_PI)
        assert np.allclose(op.apply(f).values(), 5 * np.cos(5 * th), atol=1e-12)

    def test_symbol_must_define_a_real_operator(self):
        sym = np.zeros(16, dtype=complex)
        sym[3] = 1.0    # mode 3 without its mirror -3
        with pytest.raises(ValueError, match="real operator"):
            bc.operator_from_symbol(sym, TWO_PI)

    def test_operator_norm_of_symbol(self):
        n = 64
        sym = np.abs(bc.mode_numbers(n)).astype(complex)
        op = bc.operator_from_symbol(sym, TWO_PI)
        # L2 -> L2 norm is the max symbol value
        assert abs(bc.operator_norm(op, 0, 0) - n // 2) < 1e-9
        # H1 -> L2 norm of |D|: sup |m| / sqrt(1 + m^2) < 1
        assert bc.operator_norm(op, 1, 0) < 1.0 + 1e-12

    def test_operator_json_roundtrip(self):
        n = 8
        op = dnm.dn_disk(n)
        op2 = bc.BoundaryOperator.from_json(op.to_json())
        assert np.allclose(op.matrix, op2.matrix)

    def test_operator_rejects_non_finite_coefficients_and_length(self):
        b = np.zeros((8, 8), dtype=complex)
        b[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite coefficients"):
            bc.BoundaryOperator(b, TWO_PI)
        for length in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="length must be positive and finite"):
                bc.BoundaryOperator(np.zeros((8, 8)), length)
            with pytest.raises(ValueError, match="length must be positive and finite"):
                bc.BoundaryFunction(np.zeros(8), length)

    @pytest.mark.parametrize("n", [8, 10, 256])
    def test_projection_equals_gathered_form(self, n):
        # the flip-and-roll gather of b[-j, -k] against fancy indexing
        rng = np.random.default_rng(n)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        keep = b.copy()
        r = -np.arange(n)
        got = bc.BoundaryOperator(b, TWO_PI).coeffs
        assert np.array_equal(got, 0.5 * (b + np.conj(b[np.ix_(r, r)])))
        assert np.array_equal(b, keep)  # the caller's b is not written

    @pytest.mark.parametrize("n", [0, 6, 7, 9, 31])
    def test_operator_obeys_the_grid_rule(self, n):
        with pytest.raises(ValueError, match="need even N >= 8"):
            bc.BoundaryOperator(np.zeros((n, n)), TWO_PI)
        d = {"n": n, "length": TWO_PI, "matrix_row_major": [0.0] * (n * n)}
        with pytest.raises(ValueError, match="need even N >= 8"):
            bc.BoundaryOperator.from_json(d)


@pytest.mark.parametrize("n, length", [(8, TWO_PI), (16, 1.0)], ids=["modes", "length"])
@pytest.mark.parametrize("combine", [
    lambda f, g, a, b: f + g,
    lambda f, g, a, b: f - g,
    lambda f, g, a, b: a.apply(g),
    lambda f, g, a, b: a - b,
], ids=["function_plus_function", "function_minus_function", "apply",
        "operator_minus_operator"])
def test_grid_mismatch_raises(combine, n, length):
    # f and a live on (16, 2 pi); g and b differ in N or in L
    f, g = bc.from_samples(np.ones(16), TWO_PI), bc.from_samples(np.ones(n), length)
    a, b = dnm.dn_disk(16), dnm.dn_disk(n, length)
    with pytest.raises(DimensionMismatch, match="different grids"):
        combine(f, g, a, b)

