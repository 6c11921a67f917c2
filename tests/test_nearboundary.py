"""Rectified boundary charts, near-contour image coordinates and point pairing."""

import dataclasses
import json

import numpy as np
import pytest

from eitlab import argument as ap
from eitlab import boundary as bc
from eitlab import experiments as ex
from eitlab import holomorphic as hm
from eitlab import nearboundary as nb
from eitlab.errors import AllChartsFailed, OutOfChart, TooCloseToContour, WindowCollapse
from eitlab.holomorphic import TraceTuple

TWO_PI = 2.0 * np.pi


def trace(fn, n=256):
    th = np.arange(n) * (TWO_PI / n)
    return bc.from_samples(fn(np.exp(1j * th)), TWO_PI)


def dense_chart(eta_j, a, c0=0.5):
    """Window and tangent of a chart by dense eval_at."""
    length, n = eta_j.length, eta_j.n_modes
    deta = bc.derivative_gamma(eta_j)
    scale = complex(deta.eval_at(a)[0])
    h = length / (8 * n)
    steps = np.arange(1, 4 * n)
    lo, hi = c0 * (1 + nb._CONE_MARGIN), (1 - nb._CONE_MARGIN) / c0

    def reach(ratio):
        ok = (ratio >= lo) & (ratio <= hi)
        return ok.size if ok.all() else int(np.argmin(ok))

    k = min(reach((deta.eval_at(a + steps * h) / scale).real),
            reach((deta.eval_at(a - steps * h) / scale).real))
    return (a - k * h, a + k * h), scale


@pytest.fixture(scope="module")
def circ():
    return trace(lambda z: z)


@pytest.fixture(scope="module")
def e_pair():
    return TraceTuple((trace(lambda z: z), trace(lambda z: z ** 2)))


def with_image(second, a2=0.02):
    """(z, second(z)) and its image under w = z + a2 z^2: (w, second(w))."""
    def w(z):
        return z + a2 * z ** 2

    return (TraceTuple((trace(lambda z: z), trace(second))),
            TraceTuple((trace(w), trace(lambda z: second(w(z))))))


# (z, z + 0.2 z^2): |1 + 0.4 z| > 1 where Re z > -0.2, so the second chart
# has the larger derivative there and the first elsewhere; every anchor
# admits and pairs both
MIXED = with_image(lambda z: z + 0.2 * z ** 2)


def gaussian_ripple(amp):
    """w + amp sum_{k=40}^{120} exp(-(k - 80)^2 / 450) (-1)^k w^k: a tangent
    that stays in the cone near w = 1 and speeds up near w = -1."""
    k = np.arange(40, 121)
    weights = amp * np.exp(-(k - 80) ** 2 / 450) * (-1.0) ** k
    return trace(lambda w: w + weights @ w[None, :] ** k[:, None])


class TestBuildChart:
    def test_unit_circle_anchor_zero(self, circ):
        # at a = 0: eta(0) = 1, d_gamma eta(0) = i, and the cone condition
        # cos(l) in [1/2, 2] gives the window +/- pi/3
        ch = nb.build_chart(circ, 0.0)
        assert abs(ch.tangent - 1j) < 1e-12
        lo, hi = ch.gamma_window
        assert abs(hi - np.pi / 3) < 0.05
        assert abs(lo + np.pi / 3) < 0.05

    @pytest.mark.parametrize("n", [30, 48])
    def test_cone_edge_is_outside_at_every_anchor(self, n):
        # the ratio cos(k h), h = 2 pi / 8N, is exactly 1/2 at k = 8N/6: that
        # sample is outside the cone whatever its rounding, so the window is
        # 8N/6 - 1 steps each way at every anchor (with no margin, rounding
        # gave one step more at 3 pi/2 at N = 48, and at the other three at 30)
        z = bc.from_samples(np.exp(1j * (TWO_PI * np.arange(n) / n)), TWO_PI)
        k = 8 * n // 6 - 1
        for a in np.arange(4) * np.pi / 2:
            lo, hi = nb.build_chart(z, a).gamma_window
            assert abs(hi - a - k * TWO_PI / (8 * n)) < 1e-12
            assert abs(a - lo - k * TWO_PI / (8 * n)) < 1e-12

    def test_translation_equivariance(self, circ):
        a = 1.2345
        ch0 = nb.build_chart(circ, 0.0)
        ch = nb.build_chart(circ, a)
        assert abs(ch.window_length - ch0.window_length) < 1e-10

    def test_r_zero_on_curve(self, circ):
        ch = nb.build_chart(circ, 0.5)
        l = np.array([0.45, 0.5, 0.62])
        assert np.abs(nb.unrectify(ch, l, 0.0) - np.exp(1j * l)).max() < 1e-12

    @pytest.mark.parametrize("curve", ["circle", "square", "perturbed"])
    @pytest.mark.parametrize("a", [0.0, 1.2345, -0.7, 4.0, 7.5])
    def test_matches_dense_chart(self, curve, a):
        w = {"circle": lambda z: z, "square": lambda z: z ** 2,
             "perturbed": lambda z: z + 0.08 * z ** 2 + 0.04 * z ** 3}[curve]
        eta = trace(w)
        ch = nb.build_chart(eta, a)
        window, scale = dense_chart(eta, a)
        assert ch.gamma_window == window
        assert abs(ch.tangent - scale) <= 1e-12

    def test_uncertified_window_collapses(self):
        # sum|c'| = 30.9 at amplitude 0.01: pi^2 / 512 * 30.9 = 0.595 is not
        # below _C0 |tau| = 0.510, though the cone holds for over 4 grid steps
        eta = gaussian_ripple(0.01)
        assert abs(np.abs(bc.derivative_gamma(eta).coeffs).sum() - 30.9) < 0.05
        (lo, hi), _ = dense_chart(eta, 0.0)
        assert hi - lo > 2 * 4 * TWO_PI / 256
        with pytest.raises(WindowCollapse, match="not certified increasing"):
            nb.build_chart(eta, 0.0)

    @pytest.mark.parametrize("curve, a", [("w100", 0.0), ("w100", np.pi), ("ripple", np.pi)])
    def test_short_window_collapses(self, curve, a):
        # the tangent leaves the cone within 4 grid steps of the anchor while
        # the dip bound is certified: only the window's floor refuses the chart
        eta = {"w100": trace(lambda z: z + 0.02 * z ** 100),
               "ripple": gaussian_ripple(0.002)}[curve]
        (lo, hi), tau = dense_chart(eta, a)
        assert hi - lo < 2 * 4 * TWO_PI / 256
        assert np.pi ** 2 / 512 * np.abs(bc.derivative_gamma(eta).coeffs).sum() < 0.5 * abs(tau)
        with pytest.raises(WindowCollapse, match="below 4 grid steps"):
            nb.build_chart(eta, a)

    def test_certified_window_is_admitted(self):
        # sum|c'| = 7.0 at amplitude 0.002: certified, with the cone's window
        eta = gaussian_ripple(0.002)
        assert abs(np.abs(bc.derivative_gamma(eta).coeffs).sum() - 7.0) < 0.05
        ch = nb.build_chart(eta, 0.0)
        assert ch.gamma_window == dense_chart(eta, 0.0)[0]
        assert abs(ch.window_length - 2.092) < 1e-3

    def test_one_inverse_fft(self, monkeypatch):
        # the tangent and the cone come from one 8N sampling; the
        # certificate reads coefficients only
        transforms, ifft = [], np.fft.ifft

        def counting_ifft(*args, **kwargs):
            transforms.append(args[0].shape)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counting_ifft)
        nb.build_chart(trace(lambda z: z + 0.08 * z ** 2), 0.3)
        assert transforms == [(8 * 256, 1)]


class TestRectify:
    """Points placed at chart coordinates (s, r) by unrectify's closed form."""

    def test_interior_point_coordinates(self, circ):
        # for the unit circle at anchor a: zeta = (z - e^{ia}) / (i e^{ia}),
        # so (s, r) = (a, d) is the point at radius 1 - d on the anchor ray
        ch = nb.build_chart(circ, 0.7)
        z = nb.unrectify(ch, 0.7, 0.03)
        assert abs(z - (1.0 - 0.03) * np.exp(0.7j)) < 1e-12

    def test_inverse_consistency(self, circ):
        ch = nb.build_chart(circ, 0.2)
        s = np.array([0.2, 0.35, 0.05])
        r = np.array([0.01, 0.04, 0.002])
        z = nb.unrectify(ch, s, r)
        assert z.shape == s.shape
        assert np.abs((z - circ.eval_at(s)) / ch.tangent - 1j * r).max() < 1e-12
        for k in range(s.size):
            assert abs(nb.unrectify(ch, s[k], r[k]) - z[k]) < 1e-15

    def test_out_of_chart(self, circ):
        ch = nb.build_chart(circ, 0.0)
        with pytest.raises(OutOfChart):
            nb.unrectify(ch, 2.0, 0.01)  # s outside the window
        with pytest.raises(OutOfChart):
            nb.unrectify(ch, np.array([0.0, 2.0]), 0.01)  # one s outside


class TestNearContourCoordinates:
    """Image coordinates near the contour against closed forms on (z, z^2)."""

    def test_identity_chart_near_boundary(self, e_pair):
        z = 0.97 + 0.0j
        got = ap._image_points(e_pair, 0, np.array([z]))[0][0]
        assert abs(got[0] - z) < 1e-12

    def test_square_coordinate_near_boundary(self, e_pair):
        z = 0.97 + 0.0j
        got = ap._image_points(e_pair, 0, np.array([z]))[0][0]
        assert abs(got[1] - z ** 2) < 1e-12

    def test_foot_value_at_zero_distance_limit(self, e_pair):
        # as the target approaches the foot, the value tends to eta_k(s):
        # at distance 1e-6, which the plain rule refuses, it is z^2 to rounding
        s = 0.3
        z = complex((1.0 - 1e-6) * np.exp(1j * s))
        with pytest.raises(TooCloseToContour):
            ap.cauchy_integral(e_pair[1], e_pair[0], z)
        got = ap._image_points(e_pair, 0, np.array([z]))[0][0]
        assert abs(got[1] - z ** 2) < 1e-12

    def test_agrees_with_plain_quadrature_in_overlap(self, e_pair):
        # smallest distance plain quadrature accepts at the node cap: the
        # unit circle's arclength is 2 pi
        eps_min = 4.0 * TWO_PI / ap._MAX_NODES
        d = np.array([2e-3, 8e-3])
        assert np.all(d > eps_min)
        zs = (1.0 - d) * np.exp(0.4j)
        got = ap._image_points(e_pair, 0, zs)[0]
        assert got.shape == (2, 2)
        for z, row in zip(zs, got):
            plain = ap.cauchy_integral(e_pair[1], e_pair[0], z)
            assert abs(plain - row[1]) < 1e-12

    def test_constant_coordinate(self, circ):
        # the constant 1 is its own winding row: the ratio is exactly 1
        got, winding = ap._cauchy_many(None, circ, np.array([0.99 + 0j]),
                                       compensated=True)
        assert got[0] == 1.0 and abs(winding[0] - 1.0) < 1e-12


class TestPairPoints:
    def test_identity_when_unperturbed(self, e_pair):
        ch = nb.build_chart(e_pair[0], 0.0, 0)
        s = np.array([-0.05, 0.0, 0.05])
        r = np.array([0.02, 0.01, 0.04])
        ((p, once),) = nb.pair_points(e_pair, [ch], [s], [r])
        assert p.shape == (3, 2) and once.all()
        z = nb.unrectify(ch, s, r)
        assert np.abs(p[:, 0] - z).max() < 1e-12
        assert np.abs(p[:, 1] - z ** 2).max() < 1e-12

    def test_fixes_boundary_points(self, e_pair):
        # as r -> 0 both points of a pair tend to their traces at s
        a2 = 0.04
        e_p = TraceTuple((trace(lambda z: z + a2 * z ** 2),
                          trace(lambda z: (z + a2 * z ** 2) ** 2)))
        s, r = np.array([-0.1, 0.1]), np.full(2, 1e-7)
        for e in (e_pair, e_p):
            # the capped winding row is no single-sheet test this close to
            # the contour (|W - 1| = 0.73 at r = 1e-7), so the mask is not read
            ((p, _),) = nb.pair_points(e, [nb.build_chart(e[0], 0.0, 0)], [s], [r])
            for k in range(2):
                assert np.abs(p[:, k] - e[k].eval_at(s)).max() < 1e-6

    def test_two_chart_indices(self, monkeypatch):
        # charts of both indices, interleaved, give the rows of one call per index
        e = MIXED[0]
        charts = [nb.build_chart(e[0], 0.0, 0), nb.build_chart(e[1], 0.0, 1),
                  nb.build_chart(e[0], 1.0, 0)]
        s = [np.array([0.0, 0.05]), np.array([0.02]), np.array([0.9, 1.0, 1.1])]
        r = [np.full(si.size, 0.03) for si in s]
        calls, cauchy_many = [], ap._cauchy_many

        def counting_cauchy(eta_k, eta_j, zs, **kwargs):
            calls.append(eta_j)
            return cauchy_many(eta_k, eta_j, zs, **kwargs)

        monkeypatch.setattr(ap, "_cauchy_many", counting_cauchy)
        both = nb.pair_points(e, charts, s, r)
        assert len(calls) == 2 and calls[0] is e[0] and calls[1] is e[1]
        alone = [*nb.pair_points(e, charts[::2], s[::2], r[::2]),
                 *nb.pair_points(e, charts[1:2], s[1:2], r[1:2])]
        for (p, once), (q, once_q), si in zip(both, [alone[0], alone[2], alone[1]], s):
            assert p.shape == (si.size, 2) and once.all()
            assert np.array_equal(p, q) and np.array_equal(once, once_q)


class TestReferenceCharts:
    """The reference half of the diagnostic, built once per reference tuple."""

    def test_square_chart_fails_its_probe(self, e_pair):
        # z^2 has the larger derivative everywhere but encloses each of its
        # targets twice, so its chart is not admitted
        ref = nb.reference_charts(e_pair, n_anchors=4)
        assert ref.anchors == tuple(np.arange(4) * TWO_PI / 4)
        assert [[ch.chart_index for ch, *_ in admitted]
                for admitted in ref.charts] == [[0]] * 4
        for a, ((chart, s, r, p),) in zip(ref.anchors, ref.charts):
            assert chart.eta_j is e_pair[0] and chart.anchor == a
            # _N_FEET feet over half the window, each at _N_DEPTHS depths
            feet = a + np.array([-0.25, 0.0, 0.25]) * chart.window_length
            assert np.array_equal(s, np.repeat(feet, 4))
            assert np.array_equal(r, np.tile(0.05 * np.arange(1, 5) / 4, 3))
            # to rounding: a batch of other targets may sum in another order
            z = nb.unrectify(chart, s, r)
            assert np.abs(p - ap._image_points(e_pair, 0, z)[0]).max() < 1e-14

    def test_admitted_in_index_order(self):
        # whichever chart has the larger tangent at an anchor
        ref = nb.reference_charts(MIXED[0])
        assert [[ch.chart_index for ch, *_ in admitted]
                for admitted in ref.charts] == [[0, 1]] * 8

    def test_exact_tie_keeps_index_order(self):
        # (z, z): equal tangents at every anchor, so the charts stay in index order
        z64 = trace(lambda z: z, 64)
        ref = nb.reference_charts(TraceTuple((z64, z64)), n_anchors=4)
        assert [[ch.chart_index for ch, *_ in admitted]
                for admitted in ref.charts] == [[0, 1]] * 4

    def test_frozen(self, e_pair):
        ref = nb.reference_charts(e_pair, n_anchors=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref.anchors = (0.0,)

    def test_failed_perturbed_chart_is_skipped_and_counted(self):
        # a constant second perturbed trace has no chart: every anchor pairs
        # its index-0 chart alone, as if index 1 were never admitted, and
        # counts the 12 coordinates of its index-1 chart
        e, e_p = MIXED
        flat = TraceTuple((e_p[0], bc.from_samples(np.full(256, 1.0 + 0j), TWO_PI)))
        ref = nb.reference_charts(e)
        rep = nb.near_boundary_diagnostic(ref, flat)
        assert [a["charts"] for a in rep.anchors] == [[0]] * 8
        assert [a["n_failed"] for a in rep.anchors] == [12] * 8
        first = nb.ReferenceCharts(e, ref.anchors, tuple(c[:1] for c in ref.charts))
        alone = nb.near_boundary_diagnostic(first, flat)
        assert [a["sup_discrepancy"] for a in rep.anchors] == [
            a["sup_discrepancy"] for a in alone.anchors]
        assert [a["n_failed"] for a in alone.anchors] == [0] * 8


class TestDiagnostic:
    def test_unperturbed_sup_vanishes(self, e_pair):
        rep = nb.near_boundary_diagnostic(nb.reference_charts(e_pair, n_anchors=4),
                                          e_pair)
        assert rep.global_sup < 1e-7
        assert [a["charts"] for a in rep.anchors] == [[0]] * 4
        assert [a["n_failed"] for a in rep.anchors] == [0] * 4

    def test_sup_tracks_perturbation(self, e_pair):
        sups = []
        ref = nb.reference_charts(e_pair, n_anchors=4)
        for a2 in (0.04, 0.02):
            e_p = TraceTuple((trace(lambda z: z + a2 * z ** 2),
                              trace(lambda z: (z + a2 * z ** 2) ** 2)))
            rep = nb.near_boundary_diagnostic(ref, e_p)
            sups.append(rep.global_sup)
        assert sups[0] > sups[1] > 0
        assert 1.5 < sups[0] / sups[1] < 2.8

    def test_sixteen_anchors_all_valid_on_disk(self, circ):
        e = TraceTuple((circ,))
        rep = nb.near_boundary_diagnostic(nb.reference_charts(e, n_anchors=16), e)
        assert [a["charts"] for a in rep.anchors] == [[0]] * 16
        assert rep.global_sup < 1e-7

    def test_feet_outside_perturbed_window_are_counted(self, circ):
        # the reference circle keeps its tangent in the cone for pi/3 of each
        # anchor; the perturbed z + 0.1 z^5 turns it out within about 0.38,
        # so the outer feet, at a -/+ pi/6, have no perturbed coordinates
        ref = TraceTuple((circ,))
        pert = TraceTuple((trace(lambda z: z + 0.1 * z ** 5),))
        for a in (0.0, np.pi):
            assert nb.build_chart(pert[0], a).gamma_window[1] - a < np.pi / 6
        rep = nb.near_boundary_diagnostic(nb.reference_charts(ref, n_anchors=2), pert)
        assert [a["charts"] for a in rep.anchors] == [[0], [0]]
        assert [a["n_failed"] for a in rep.anchors] == [2 * 4, 2 * 4]
        assert rep.global_sup > 0

    def test_swapped_traces_pair_nothing(self, e_pair):
        # the perturbed chart 0 is z^2, which encloses every target twice:
        # its compensated ratios are finite but no image points
        swapped = TraceTuple((e_pair[1], e_pair[0]))
        ref = nb.reference_charts(e_pair, n_anchors=4)
        for chart, s, r, _ in (admitted[0] for admitted in ref.charts):
            ch_p = nb.build_chart(swapped[0], chart.anchor, 0)
            inside = ch_p.contains_l(s)
            zs = nb.unrectify(ch_p, s[inside], r[inside])
            winding = ap._cauchy_many(None, swapped[0], zs, compensated=True)[1]
            assert np.abs(winding - 2.0).max() < 1e-6
        with pytest.raises(AllChartsFailed):
            nb.near_boundary_diagnostic(ref, swapped)

    def test_anchor_without_pair_has_no_sup(self, e_pair, monkeypatch):
        # perturbed targets not enclosed once drop from their anchor alone
        ref = nb.reference_charts(e_pair, n_anchors=4)
        e_p = with_image(lambda z: z ** 2)[1]
        pair_points = nb.pair_points

        def first_not_once(e, charts, s, r):
            out = pair_points(e, charts, s, r)
            if e is not ref.e:
                out[0] = (out[0][0], np.zeros_like(out[0][1]))
            return out

        monkeypatch.setattr(nb, "pair_points", first_not_once)
        rep = nb.near_boundary_diagnostic(ref, e_p)
        assert [a["sup_discrepancy"] is None for a in rep.anchors] == [
            True, False, False, False]
        assert [a["n_failed"] for a in rep.anchors] == [12, 0, 0, 0]
        assert [a["charts"] for a in rep.anchors] == [[], [0], [0], [0]]

    def test_anchor_without_perturbed_chart_counts_its_coordinates(self, e_pair,
                                                                   monkeypatch):
        # no perturbed chart at the second anchor: its 12 coordinates have no pair
        ref = nb.reference_charts(e_pair, n_anchors=4)
        e_p = with_image(lambda z: z ** 2)[1]
        whole = nb.near_boundary_diagnostic(ref, e_p).anchors
        build_chart = nb.build_chart

        def collapse_at_second(eta_j, a, chart_index=0):
            if eta_j is e_p[chart_index] and a == ref.anchors[1]:
                raise WindowCollapse("no perturbed chart")
            return build_chart(eta_j, a, chart_index)

        monkeypatch.setattr(nb, "build_chart", collapse_at_second)
        rep = nb.near_boundary_diagnostic(ref, e_p)
        assert rep.anchors[1] == {"a": ref.anchors[1], "charts": [],
                                  "sup_discrepancy": None,
                                  "n_failed": nb._N_FEET * nb._N_DEPTHS}
        assert [a["n_failed"] for a in whole] == [0] * 4
        assert rep.anchors[::2] == whole[::2] and rep.anchors[3] == whole[3]

    def test_pairs_at_reference_coordinates(self, monkeypatch):
        # every record pairs at the reference chart's (s, r), whatever its
        # own window: feet spread by the perturbed window would move
        e = MIXED[0]
        ref = nb.reference_charts(e)
        paired, pair_points = [], nb.pair_points

        def kept(e_, charts, s, r):
            paired.append((charts, s, r))
            return pair_points(e_, charts, s, r)

        monkeypatch.setattr(nb, "pair_points", kept)
        for a2 in (0.08, 0.02):
            rep = nb.near_boundary_diagnostic(ref, with_image(
                lambda z: z + 0.2 * z ** 2, a2)[1])
            ((charts_p, s_p, r_p),) = paired
            paired.clear()
            assert [a["charts"] for a in rep.anchors] == [[0, 1]] * 8
            admitted = [c for charts in ref.charts for c in charts]
            assert len(charts_p) == len(admitted) == 16
            for (chart, s_ref, r_ref, _), ch_p, s, r in zip(admitted, charts_p, s_p, r_p):
                assert (chart.anchor, chart.chart_index) == (ch_p.anchor, ch_p.chart_index)
                assert ch_p.gamma_window != chart.gamma_window
                assert np.array_equal(s, s_ref) and np.array_equal(r, r_ref)

    def test_probe_precedes_perturbed_chart(self, e_pair, monkeypatch):
        built = []
        build_chart = nb.build_chart

        def counting(eta_j, a, chart_index=0):
            built.append(chart_index)
            return build_chart(eta_j, a, chart_index)

        monkeypatch.setattr(nb, "build_chart", counting)
        nb.near_boundary_diagnostic(nb.reference_charts(e_pair, n_anchors=4), e_pair)
        # the z^2 chart encloses none of its reference targets once, so it
        # is not admitted and its perturbed chart is never built
        assert built.count(1) == 4
        assert built.count(0) == 8

    def test_all_charts_failed(self):
        # constant trace: derivative vanishes everywhere
        n = 128
        e = TraceTuple((bc.from_samples(np.full(n, 1.0 + 0j), TWO_PI),))
        ref = nb.reference_charts(e, n_anchors=2)
        assert ref.charts == ((), ())
        with pytest.raises(AllChartsFailed):
            nb.near_boundary_diagnostic(ref, e)

    def test_report_json_round_trip(self, e_pair):
        rep = nb.near_boundary_diagnostic(nb.reference_charts(e_pair, n_anchors=2),
                                          e_pair)
        d = json.loads(json.dumps(rep.to_json()))
        assert d["global_sup"] == rep.global_sup
        assert len(d["anchors"]) == 2


class TestMixedChartIndices:
    """Anchors of both chart indices, each index paired in one call."""

    def test_anchors_choose_both_indices(self):
        e, e_p = MIXED
        rep = nb.near_boundary_diagnostic(nb.reference_charts(e), e_p)
        assert [a["charts"] for a in rep.anchors] == [[0, 1]] * 8
        assert [a["n_failed"] for a in rep.anchors] == [0] * 8

    def test_each_anchor_matches_its_own_pairing(self):
        e, e_p = MIXED
        rep = nb.near_boundary_diagnostic(nb.reference_charts(e), e_p)
        depths = 0.05 * np.arange(1, nb._N_DEPTHS + 1) / nb._N_DEPTHS
        sups = []  # per anchor, the sup of each chart paired on its own
        for entry in rep.anchors:
            a = entry["a"]
            sups.append([])
            for j in entry["charts"]:
                ch = nb.build_chart(e[j], a, j)
                ch_p = nb.build_chart(e_p[j], a, j)
                feet = a + np.linspace(-0.25, 0.25, nb._N_FEET) * ch.window_length
                s, r = np.meshgrid(feet[ch_p.contains_l(feet)], depths, indexing="ij")
                ((p, _),) = nb.pair_points(e, [ch], [s.ravel()], [r.ravel()])
                ((p_prime, _),) = nb.pair_points(e_p, [ch_p], [s.ravel()], [r.ravel()])
                sups[-1].append(float(np.abs(p - p_prime).max()))
            assert len(sups[-1]) == 2
            assert abs(entry["sup_discrepancy"] - max(sups[-1])) <= 1e-12 * max(sups[-1])
        assert rep.global_sup == max(a["sup_discrepancy"] for a in rep.anchors)
        # the anchors are not all alike, so rows given to the wrong anchor
        # show, and each chart sets the max somewhere, so one left out shows
        maxima = [max(chart_sups) for chart_sups in sups]
        assert max(maxima) - min(maxima) > 1e-3 * max(maxima)
        assert {int(np.argmax(chart_sups)) for chart_sups in sups} == {0, 1}

    @pytest.mark.parametrize("second, n_admitted, n_used", [
        (lambda z: z ** 2, 1, 1),            # the z^2 chart encloses no target once
        (lambda z: z + 0.2 * z ** 2, 2, 2),  # MIXED: both charts pair at every anchor
    ], ids=["square", "mixed"])
    def test_one_compensated_call_per_tuple_and_index(self, monkeypatch, second,
                                                      n_admitted, n_used):
        e, e_p = with_image(second)
        calls = []  # (numerator tuple, compensated) per _cauchy_many call
        built = []  # chart index per reference chart that builds
        built_p = []  # chart index per perturbed chart that builds
        cauchy_many, build_chart = ap._cauchy_many, nb.build_chart

        def counting_cauchy(eta_k, *args, compensated=False, **kwargs):
            calls.append((eta_k, compensated))
            return cauchy_many(eta_k, *args, compensated=compensated, **kwargs)

        def counting_chart(eta_j, a, chart_index=0):
            chart = build_chart(eta_j, a, chart_index)
            (built if eta_j is e[chart_index] else built_p).append(chart_index)
            return chart

        def no_probe(eta_j, z):
            raise AssertionError("winding_number called")

        monkeypatch.setattr(ap, "_cauchy_many", counting_cauchy)
        monkeypatch.setattr(ap, "winding_number", no_probe)
        monkeypatch.setattr(nb, "build_chart", counting_chart)
        ref = nb.reference_charts(e)
        # every index is built once at every anchor, and the reference side
        # makes one call per index that builds, for every record
        assert len(built) == 16 and set(built) == {0, 1}
        assert [(eta_k is e, c) for eta_k, c in calls] == [(True, True)] * 2
        assert len({ch.chart_index for admitted in ref.charts
                    for ch, *_ in admitted}) == n_admitted
        calls.clear()
        rep = nb.near_boundary_diagnostic(ref, e_p)
        used = {j for a in rep.anchors for j in a["charts"]}
        assert len(used) == n_used
        # the perturbed side: a chart per admitted chart, and one call per
        # used index, however many charts it has
        assert len(built_p) == 8 * n_admitted
        assert [(eta_k is e_p, c) for eta_k, c in calls] == [(True, True)] * n_used
        assert len(built) == 16


class TestRounding:
    """A change in the last bits of a trace cannot move the sup."""

    def test_rounding_cannot_move_the_sup(self):
        # the README sweep with immersion z,expz: at pi/2 and 3 pi/2,
        # |d_gamma z| = |d_gamma e^z| = 1, and scaling expz's coefficients by
        # 16 ulps swaps which is larger at pi/2.  The max over every admitted
        # chart reads the same; a first chart in -|tau| order read 9.425e-3
        # at s = 0.08 before the scaling and 9.565e-3 after it
        cfg = ex.ExperimentConfig(
            base_surface={"kind": "disk"}, immersion="z,expz", n_modes=128,
            perturbation_family={"kind": "conformal_polynomial",
                                 "parameter_list": [0.08, 0.04, 0.02, 0.01]},
            epsilon=0.2, grid_resolution=32)
        dn_at = cfg.validate()

        def complete(block, s):  # as run_sweep: the block under Lambda(s)
            lam = dn_at(s)
            return hm.transport_immersion(
                block, lam, hm.build_projections(lam, hm.estimate_kappa(lam)))

        ref = complete(ex._real_traces(cfg)[1], 0.0)
        e = TraceTuple._from_block(ref.coeffs[:, :2], ref.length)
        e_ps = [TraceTuple._from_block(complete(ref, s).coeffs[:, :2], ref.length)
                for s in cfg.perturbation_family["parameter_list"]]
        scaled = TraceTuple((e[0], bc.BoundaryFunction(e[1].coeffs * (1 + 16 * 2.2e-16),
                                                       e.length)))
        gaps, sups = [], []
        for base in (e, scaled):
            tau = [nb.build_chart(base[j], np.pi / 2, j).tangent for j in range(2)]
            gaps.append(abs(tau[1]) - abs(tau[0]))
            charts = nb.reference_charts(base)
            sups.append([f"{nb.near_boundary_diagnostic(charts, e_p).global_sup:.3e}"
                         for e_p in e_ps])
        assert gaps[0] < 0 < gaps[1] and max(map(abs, gaps)) < 1e-14
        assert sups[0] == sups[1] == ["9.565e-03", "2.399e-03", "5.980e-04", "1.499e-04"]
