"""Rectified boundary charts, near-contour image coordinates and point pairing."""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from eitlab import argument as ap
from eitlab import boundary as bc
from eitlab import nearboundary as nb
from eitlab.errors import AllChartsFailed, OutOfChart, TooCloseToContour
from eitlab.holomorphic import TraceTuple

TWO_PI = 2.0 * np.pi


def trace(fn, n=256):
    th = np.arange(n) * (TWO_PI / n)
    return bc.from_samples(fn(np.exp(1j * th)), TWO_PI)


def dense_chart(eta_j, a, c0=0.5):
    """Window, anchor values and psi1 inverse of a chart by dense eval_at."""
    length, n = eta_j.length, eta_j.n_modes
    deta = bc.derivative_gamma(eta_j)
    scale = complex(deta.eval_at(a)[0])
    h = length / (8 * n)
    steps = np.arange(1, 4 * n)

    def reach(ratio):
        ok = (ratio >= c0) & (ratio <= 1.0 / c0)
        return ok.size if ok.all() else int(np.argmin(ok))

    k = min(reach((deta.eval_at(a + steps * h) / scale).real),
            reach((deta.eval_at(a - steps * h) / scale).real))
    lo, hi = a - k * h, a + k * h
    ls = np.linspace(lo, hi, 8 * max(k, 8) + 1)
    z_a = complex(eta_j.eval_at(a)[0])
    psi1 = ((eta_j.eval_at(ls) - z_a) / scale).real
    return (lo, hi), z_a, scale, PchipInterpolator(psi1, ls, extrapolate=False)


@pytest.fixture(scope="module")
def circ():
    return trace(lambda z: z)


@pytest.fixture(scope="module")
def e_pair():
    return TraceTuple((trace(lambda z: z), trace(lambda z: z ** 2)))


class TestBuildChart:
    def test_unit_circle_anchor_zero(self, circ):
        # at a = 0: eta(0) = 1, d_gamma eta(0) = i, and the cone condition
        # cos(l) in [1/2, 2] gives the window +/- pi/3
        ch = nb.build_chart(circ, 0.0)
        assert abs(ch.zeta_shift - 1.0) < 1e-12
        assert abs(ch.zeta_scale - 1j) < 1e-12
        lo, hi = ch.gamma_window
        assert abs(hi - np.pi / 3) < 0.05
        assert abs(lo + np.pi / 3) < 0.05
        assert ch.c0 == 0.5
        assert ch.disk_radius > 0.5

    def test_translation_equivariance(self, circ):
        a = 1.2345
        ch0 = nb.build_chart(circ, 0.0)
        ch = nb.build_chart(circ, a)
        assert abs(ch.window_length - ch0.window_length) < 1e-10
        assert abs(ch.zeta_shift - np.exp(1j * a)) < 1e-10

    def test_r_zero_on_curve(self, circ):
        ch = nb.build_chart(circ, 0.5)
        for l in (0.45, 0.5, 0.62):
            s, r = nb.rectify(ch, complex(np.exp(1j * l)))
            assert abs(s - l) < 1e-10
            assert abs(r) < 1e-10

    @pytest.mark.parametrize("curve", ["circle", "square", "perturbed"])
    @pytest.mark.parametrize("a", [0.0, 1.2345, -0.7, 4.0, 7.5])
    def test_matches_dense_chart(self, curve, a):
        w = {"circle": lambda z: z, "square": lambda z: z ** 2,
             "perturbed": lambda z: z + 0.08 * z ** 2 + 0.04 * z ** 3}[curve]
        eta = trace(w)
        ch = nb.build_chart(eta, a)
        window, z_a, scale, inv = dense_chart(eta, a)
        assert ch.gamma_window == window
        assert abs(ch.zeta_shift - z_a) <= 1e-12
        assert abs(ch.zeta_scale - scale) <= 1e-12
        knots = inv.x
        assert ch.psi1_inverse.x.shape == knots.shape
        assert np.abs(ch.psi1_inverse.x - knots).max() <= 1e-12
        assert np.abs(ch.psi1_inverse(knots[1:-1]) - inv(knots[1:-1])).max() <= 1e-10


class TestRectify:
    def test_interior_point_coordinates(self, circ):
        # for the unit circle at anchor a: zeta = (z - e^{ia}) / (i e^{ia}),
        # a point at radius 1 - d on the anchor ray has s = a, r = d
        ch = nb.build_chart(circ, 0.7)
        z = (1.0 - 0.03) * np.exp(0.7j)
        s, r = nb.rectify(ch, complex(z))
        assert abs(s - 0.7) < 1e-10
        assert abs(r - 0.03) < 2e-4  # curvature correction is O(d^2)

    def test_inverse_consistency(self, circ):
        ch = nb.build_chart(circ, 0.2)
        for s0, r0 in ((0.2, 0.01), (0.35, 0.04), (0.05, 0.002)):
            z = nb.unrectify(ch, s0, r0)
            s, r = nb.rectify(ch, z)
            assert abs(s - s0) < 1e-8
            assert abs(r - r0) < 1e-8

    def test_newton_nonconvergence_raises(self, circ, monkeypatch):
        ch = nb.build_chart(circ, 0.2)
        z = nb.unrectify(ch, 0.3, 0.02)
        # a sign-flipped tangent turns every root into a repeller
        derivative = bc.derivative_gamma
        monkeypatch.setattr(bc, "derivative_gamma", lambda f: -1.0 * derivative(f))
        with pytest.raises(OutOfChart, match="50 iterations"):
            nb.rectify(ch, z)

    def test_out_of_chart(self, circ):
        ch = nb.build_chart(circ, 0.0)
        with pytest.raises(OutOfChart):
            nb.rectify(ch, complex(1.0, 5.0))  # zeta_1 = 5, far past the window
        with pytest.raises(OutOfChart):
            nb.unrectify(ch, 2.0, 0.01)  # s outside the window


class TestNearContourCoordinates:
    """Image coordinates near the contour against closed forms on (z, z^2)."""

    def test_identity_chart_near_boundary(self, e_pair):
        z = 0.97 + 0.0j
        got = nb._coordinate_at(e_pair, 0, z)
        assert abs(got[0] - z) < 1e-12

    def test_square_coordinate_near_boundary(self, e_pair):
        z = 0.97 + 0.0j
        got = nb._coordinate_at(e_pair, 0, z)
        assert abs(got[1] - z ** 2) < 1e-12

    def test_foot_value_at_zero_distance_limit(self, e_pair):
        # as the target approaches the foot, the value tends to eta_k(s):
        # at distance 1e-6, which the plain rule refuses, it is z^2 to rounding
        s = 0.3
        z = complex((1.0 - 1e-6) * np.exp(1j * s))
        with pytest.raises(TooCloseToContour):
            ap.cauchy_integral(e_pair[1], e_pair[0], z)
        got = nb._coordinate_at(e_pair, 0, z)
        assert abs(got[1] - z ** 2) < 1e-12

    def test_agrees_with_plain_quadrature_in_overlap(self, e_pair):
        arclen = ap._z_arclength(e_pair[0])
        # smallest distance plain quadrature accepts at the node cap
        eps_min = 4.0 * arclen / 16384
        for d in (2e-3, 8e-3):
            assert d > eps_min
            z = complex((1.0 - d) * np.exp(0.4j))
            plain = ap.cauchy_integral(e_pair[1], e_pair[0], z)
            assert abs(plain - nb._coordinate_at(e_pair, 0, z)[1]) < 1e-12

    def test_constant_coordinate(self, circ):
        # the constant 1 is its own winding row: the ratio is exactly 1
        got, winding = ap._cauchy_many(None, circ, np.array([0.99 + 0j]),
                                       compensated=True)
        assert got[0] == 1.0 and abs(winding[0] - 1.0) < 1e-12


class TestPairPoints:
    def test_identity_when_unperturbed(self, e_pair):
        ch = nb.build_chart(e_pair[0], 0.0, 0)
        z = nb.unrectify(ch, 0.05, 0.02)
        p_prime = np.array([ap.cauchy_integral(e_pair[k], e_pair[0], z)
                            for k in range(2)])
        p = nb.pair_points(ch, ch, p_prime, e_pair)
        assert np.abs(p - p_prime).max() < 1e-8

    def test_fixes_boundary_points(self, e_pair):
        ch = nb.build_chart(e_pair[0], 0.0, 0)
        s = 0.1
        p_prime = np.array([complex(e_pair[k].eval_at(s)[0]) for k in range(2)])
        p = nb.pair_points(ch, ch, p_prime, e_pair)
        assert np.abs(p - p_prime).max() < 1e-12

    def test_chart_index_mismatch(self, e_pair):
        ch0 = nb.build_chart(e_pair[0], 0.0, 0)
        ch1 = nb.build_chart(e_pair[1], 0.0, 1)
        with pytest.raises(OutOfChart):
            nb.pair_points(ch0, ch1, np.array([1.0 + 0j, 1.0 + 0j]), e_pair)


class TestDiagnostic:
    def test_unperturbed_sup_vanishes(self, e_pair):
        rep = nb.near_boundary_diagnostic(e_pair, e_pair, n_anchors=4)
        assert rep.global_sup < 1e-7
        built = [a for a in rep.anchors if a["chart_j"] is not None]
        assert len(built) == 4
        for a in built:
            assert a["n_failed"] == 0

    def test_sup_tracks_perturbation(self, e_pair):
        sups = []
        for a2 in (0.04, 0.02):
            e_p = TraceTuple((trace(lambda z: z + a2 * z ** 2),
                              trace(lambda z: (z + a2 * z ** 2) ** 2)))
            rep = nb.near_boundary_diagnostic(e_pair, e_p, n_anchors=4)
            sups.append(rep.global_sup)
        assert sups[0] > sups[1] > 0
        assert 1.5 < sups[0] / sups[1] < 2.8

    def test_sixteen_anchors_all_valid_on_disk(self, circ):
        e = TraceTuple((circ,))
        rep = nb.near_boundary_diagnostic(e, e, n_anchors=16)
        assert all(a["chart_j"] == 0 for a in rep.anchors)
        assert rep.global_sup < 1e-7

    def test_unconverged_points_are_counted(self, e_pair, monkeypatch):
        # an unattainable step tolerance: every rectification fails
        monkeypatch.setattr(nb._refine_s, "__defaults__", (0.0, 50))
        rep = nb.near_boundary_diagnostic(e_pair, e_pair, n_anchors=2)
        built = [a for a in rep.anchors if a["chart_j"] is not None]
        assert len(built) == 2
        assert all(a["n_failed"] == 3 * 4 for a in built)

    def test_probe_precedes_perturbed_chart(self, e_pair, monkeypatch):
        built = []
        build_chart = nb.build_chart

        def counting(eta_j, a, chart_index=0, c0=nb._C0):
            built.append(chart_index)
            return build_chart(eta_j, a, chart_index, c0)

        monkeypatch.setattr(nb, "build_chart", counting)
        nb.near_boundary_diagnostic(e_pair, e_pair, n_anchors=4)
        # the z^2 chart, tried first, fails the winding probe on its
        # reference chart, so its perturbed chart is never built
        assert built.count(1) == 4
        assert built.count(0) == 8

    def test_all_charts_failed(self):
        # constant trace: derivative vanishes everywhere
        n = 128
        e = TraceTuple((bc.from_samples(np.full(n, 1.0 + 0j), TWO_PI),))
        with pytest.raises(AllChartsFailed):
            nb.near_boundary_diagnostic(e, e, n_anchors=2)

    def test_report_save(self, e_pair, tmp_path):
        import json

        rep = nb.near_boundary_diagnostic(e_pair, e_pair, n_anchors=2)
        path = str(tmp_path / "rep.json")
        rep.save(path)
        with open(path) as fh:
            d = json.load(fh)
        assert d["global_sup"] == rep.global_sup
        assert len(d["anchors"]) == 2
