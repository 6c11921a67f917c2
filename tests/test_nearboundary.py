"""Rectified boundary charts, near-contour image coordinates and point pairing."""

import dataclasses
import json

import numpy as np
import pytest

from eitlab import argument as ap
from eitlab import boundary as bc
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

    def reach(ratio):
        ok = (ratio >= c0) & (ratio <= 1.0 / c0)
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
# has the larger derivative there and the anchors choose both chart indices
MIXED = with_image(lambda z: z + 0.2 * z ** 2)
MIXED_CHARTS = [1, 1, 1, 0, 0, 0, 1, 1]


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
        # z^2 has the larger derivative everywhere but winds twice
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

    def test_admitted_in_derivative_order(self):
        ref = nb.reference_charts(MIXED[0])
        assert [[ch.chart_index for ch, *_ in admitted] for admitted in ref.charts] == [
            [j, 1 - j] for j in MIXED_CHARTS]

    def test_frozen(self, e_pair):
        ref = nb.reference_charts(e_pair, n_anchors=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref.anchors = (0.0,)

    def test_falls_back_when_perturbed_chart_fails(self):
        # a constant second perturbed trace has no chart, so the anchors
        # that admitted index 1 first pair in their index-0 charts
        e, e_p = MIXED
        flat = TraceTuple((e_p[0], bc.from_samples(np.full(256, 1.0 + 0j), TWO_PI)))
        rep = nb.near_boundary_diagnostic(nb.reference_charts(e), flat)
        assert [a["chart_j"] for a in rep.anchors] == [0] * 8
        assert all(a["n_failed"] == 0 for a in rep.anchors)


class TestDiagnostic:
    def test_unperturbed_sup_vanishes(self, e_pair):
        rep = nb.near_boundary_diagnostic(nb.reference_charts(e_pair, n_anchors=4),
                                          e_pair)
        assert rep.global_sup < 1e-7
        built = [a for a in rep.anchors if a["chart_j"] is not None]
        assert len(built) == 4
        for a in built:
            assert a["n_failed"] == 0

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
        assert all(a["chart_j"] == 0 for a in rep.anchors)
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
        assert [a["chart_j"] for a in rep.anchors] == [0, 0]
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
        assert [a["chart_j"] for a in rep.anchors] == [0] * 4

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
            for entry, admitted, ch_p, s, r in zip(rep.anchors, ref.charts,
                                                  charts_p, s_p, r_p):
                chart, s_ref, r_ref, _ = admitted[0]
                assert entry["chart_j"] == chart.chart_index == ch_p.chart_index
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
        # the z^2 chart, tried first, fails the winding probe on its
        # reference chart, so its perturbed chart is never built
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
        assert [a["chart_j"] for a in rep.anchors] == MIXED_CHARTS

    def test_each_anchor_matches_its_own_pairing(self):
        e, e_p = MIXED
        rep = nb.near_boundary_diagnostic(nb.reference_charts(e), e_p)
        depths = 0.05 * np.arange(1, nb._N_DEPTHS + 1) / nb._N_DEPTHS
        sups = []
        for entry in rep.anchors:
            a, j = entry["a"], entry["chart_j"]
            ch = nb.build_chart(e[j], a, j)
            ch_p = nb.build_chart(e_p[j], a, j)
            feet = a + np.linspace(-0.25, 0.25, nb._N_FEET) * ch.window_length
            s, r = np.meshgrid(feet[ch_p.contains_l(feet)], depths, indexing="ij")
            ((p, _),) = nb.pair_points(e, [ch], [s.ravel()], [r.ravel()])
            ((p_prime, _),) = nb.pair_points(e_p, [ch_p], [s.ravel()], [r.ravel()])
            sups.append(float(np.abs(p - p_prime).max()))
            assert abs(entry["sup_discrepancy"] - sups[-1]) <= 1e-12 * sups[-1]
        assert rep.global_sup == max(a["sup_discrepancy"] for a in rep.anchors)
        # the anchors are not all alike, so rows given to the wrong anchor show
        assert max(sups) - min(sups) > 1e-3 * max(sups)

    @pytest.mark.parametrize("second, n_admitted, n_used, n_probes", [
        # every index is probed once, at every anchor, by reference_charts
        (lambda z: z ** 2, 1, 1, 16),            # the z^2 chart fails every probe
        (lambda z: z + 0.2 * z ** 2, 2, 2, 16),  # MIXED: every first chart holds
    ], ids=["square", "mixed"])
    def test_one_compensated_call_per_tuple_and_index(self, monkeypatch, second,
                                                      n_admitted, n_used, n_probes):
        e, e_p = with_image(second)
        calls = []  # (numerator tuple, compensated) per _cauchy_many call
        probed, probes = [], []
        cauchy_many, build_chart = ap._cauchy_many, nb.build_chart
        winding_number = ap.winding_number

        def counting_cauchy(eta_k, *args, compensated=False, **kwargs):
            calls.append((eta_k, compensated))
            return cauchy_many(eta_k, *args, compensated=compensated, **kwargs)

        def counting_chart(eta_j, a, chart_index=0):
            chart = build_chart(eta_j, a, chart_index)
            if eta_j is e[chart_index]:  # a reference chart: it gets probed
                probed.append(chart_index)
            return chart

        def counting_winding(eta_j, z):
            probes.append(z)
            return winding_number(eta_j, z)

        monkeypatch.setattr(ap, "_cauchy_many", counting_cauchy)
        monkeypatch.setattr(ap, "winding_number", counting_winding)
        monkeypatch.setattr(nb, "build_chart", counting_chart)
        ref = nb.reference_charts(e)
        # the reference side: one call per admitted index, for every record
        assert [(eta_k is e, c) for eta_k, c in calls] == [(True, True)] * n_admitted
        assert len({ch.chart_index for admitted in ref.charts
                    for ch, *_ in admitted}) == n_admitted
        calls.clear()
        rep = nb.near_boundary_diagnostic(ref, e_p)
        used = {a["chart_j"] for a in rep.anchors}
        assert len(used) == n_used
        # the perturbed side: one call per used index; probes count crossings
        assert [(eta_k is e_p, c) for eta_k, c in calls] == [(True, True)] * n_used
        assert len(probes) == len(probed) == n_probes
