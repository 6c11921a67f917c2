"""Contour-integral reconstruction of immersed surface images."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitlab import argument as ap
from eitlab import boundary as bc
from eitlab.errors import NonIntegerWinding, TooCloseToContour
from eitlab.holomorphic import TraceTuple

TWO_PI = 2.0 * np.pi


def trace(fn, n=256):
    th = np.arange(n) * (TWO_PI / n)
    return bc.from_samples(fn(np.exp(1j * th)), TWO_PI)


@pytest.fixture(scope="module")
def e_z():
    return TraceTuple((trace(lambda z: z),))


@pytest.fixture(scope="module")
def e_pair():
    return TraceTuple((trace(lambda z: z), trace(lambda z: z ** 2)))


class TestCauchyOracles:
    def test_winding_inside_unit_circle(self, e_z):
        assert abs(ap.cauchy_integral(None, e_z[0], 0.0) - 1.0) < 1e-12

    def test_winding_outside(self, e_z):
        assert abs(ap.cauchy_integral(None, e_z[0], 2.0 + 0.5j)) < 1e-10

    def test_identity_coordinate_recovers_target(self, e_z):
        z = 0.5 + 0.0j
        assert abs(ap.cauchy_integral(e_z[0], e_z[0], z) - 0.25 - 0.25) < 1.0
        # J_{1,1}(z) = z exactly for the identity chart
        assert abs(ap.cauchy_integral(e_z[0], e_z[0], z) - z) < 1e-12

    def test_square_coordinate(self, e_pair):
        # the z^2 coordinate evaluated through the z chart gives z^2
        z = 0.5 + 0.1j
        got = ap.cauchy_integral(e_pair[1], e_pair[0], z)
        assert abs(got - z ** 2) < 1e-12

    def test_winding_two_of_square_chart(self, e_pair):
        assert ap.winding_number(e_pair[1], 0.3 + 0.0j) == 2

    def test_derivative_integrals(self, e_pair):
        z = 0.4 - 0.2j
        # d/dz of z through the z chart is 1, of z^2 is 2z, of a point
        # outside is 0
        assert abs(ap.derivative_integral(e_pair[0], e_pair[0], z) - 1.0) < 1e-11
        assert abs(ap.derivative_integral(e_pair[1], e_pair[0], z) - 2 * z) < 1e-11
        assert abs(ap.derivative_integral(e_pair[0], e_pair[0], 3.0 + 0j)) < 1e-11

    def test_additivity_over_sheets(self, e_pair):
        # the z chart has two preimages over z^2-image points; summing the
        # first coordinate over both sheets of the square chart cancels
        val = ap.cauchy_integral(e_pair[0], e_pair[1], 0.25 + 0.0j)
        assert abs(val) < 1e-8

    def test_quadrature_converges_near_contour(self, e_z):
        # halving the distance to the contour keeps the relative error small
        # because the node count scales with 1/dist
        for d in (0.05, 0.025, 0.0125):
            z = complex(1.0 - d, 0.0)
            got = ap.cauchy_integral(e_z[0], e_z[0], z)
            assert abs(got - z) < 1e-6 * abs(z)

    def test_too_close_raises(self, e_z):
        with pytest.raises(TooCloseToContour):
            ap.cauchy_integral(None, e_z[0], complex(1.0 - 1e-9, 0.0))

    def test_noninteger_winding_raises(self, e_z, monkeypatch):
        # the rounding guard fires when the contour integral is far from an
        # integer (an under-resolved quadrature would produce this)
        monkeypatch.setattr(ap, "_cauchy_many",
                            lambda *a, **k: np.array([0.5 + 0.0j]))
        with pytest.raises(NonIntegerWinding):
            ap.winding_number(e_z[0], 0.0 + 0.0j)


class TestStackedNumerators:
    @pytest.mark.parametrize("squared", [False, True])
    def test_rows_equal_single_numerator_calls(self, e_pair, squared):
        # targets at several contour distances, hence several node counts
        zs = np.array([0.0, 0.3 + 0.2j, 0.9, 0.97j, -0.99, 2.0 + 0.5j])
        nums = (None, e_pair[0], e_pair[1])
        rows = ap._cauchy_many(nums, e_pair[0], zs, squared=squared)
        assert rows.shape == (len(nums), zs.size)
        assert len(set(ap._node_plan(e_pair[0], ap.contour_distance(e_pair[0], zs),
                                     squared)[0])) > 2
        for row, eta_k in zip(rows, nums):
            single = ap._cauchy_many(eta_k, e_pair[0], zs, squared=squared)
            assert single.shape == (zs.size,)
            assert np.array_equal(row, single)


def on_ladder(n):
    """n = m * 2^k with m in {4, 5, 6, 7}."""
    while n > 7 and n % 2 == 0:
        n //= 2
    return n in (4, 5, 6, 7)


def largest_prime_factor(n):
    p, f, best = n, 2, 1
    while f * f <= p:
        while p % f == 0:
            p //= f
            best = f
        f += 1
    return max(best, p)


raw_counts = st.integers(1, 2 * ap._MAX_NODES)
ladder_property = settings(deadline=None, derandomize=True, database=None,
                           max_examples=400)


class TestNodeLadder:
    @ladder_property
    @given(raw_counts, raw_counts)
    def test_rounded_count(self, a, b):
        raw = np.array(sorted((a, b)))
        n = ap._round_up_nodes(raw)
        assert np.all(np.minimum(raw, ap._MAX_NODES) <= n)
        assert np.all(n <= np.minimum(1.25 * raw, ap._MAX_NODES))
        assert all(largest_prime_factor(int(m)) <= 7 for m in n)
        assert all(r < 4 or on_ladder(int(m)) for r, m in zip(raw, n))
        assert n[0] <= n[1]  # never decreases as the raw count grows

    def test_one_pass_per_rounded_count(self, e_pair, monkeypatch):
        # targets from the centre up to 1e-3 of the contour: 183 distinct
        # raw counts collapse onto the ladder sizes, one pass each
        rng = np.random.default_rng(7)
        zs = (1.0 - np.geomspace(1.0, 1e-3, 300)) * np.exp(2j * np.pi * rng.random(300))
        dists = ap.contour_distance(e_pair[0], zs)
        with monkeypatch.context() as m:
            m.setattr(ap, "_round_up_nodes",
                      lambda c: np.minimum(c, ap._MAX_NODES).astype(int))
            raw = ap._node_plan(e_pair[0], dists)[0]
        counts = ap._node_plan(e_pair[0], dists)[0]
        passes = []
        real_raw = ap._cauchy_raw

        def counting_raw(*args):
            passes.append(args[-1])
            return real_raw(*args)

        monkeypatch.setattr(ap, "_cauchy_raw", counting_raw)
        got, _ = ap._cauchy_many(e_pair.traces, e_pair[0], zs, compensated=True)
        assert np.abs(got[0] - zs).max() <= 1e-12
        assert sorted(passes) == sorted(set(counts.tolist()))
        assert all(on_ladder(n) and n <= ap._MAX_NODES for n in passes)
        assert np.all(counts >= raw) and np.all(counts <= 1.25 * raw)
        # at most four sizes per octave from 256 to 16384 nodes
        assert len(passes) <= 25 < len(set(raw.tolist())) // 5


class TestContourDistance:
    def test_equals_dense_minimum(self, e_pair):
        rng = np.random.default_rng(3)
        zs = 1.6 * (rng.random(500) - 0.5) + 1.6j * (rng.random(500) - 0.5)
        samples = ap._contour_samples(e_pair[1])
        dense = np.abs(zs[:, None] - samples[None, :]).min(axis=1)
        assert np.abs(ap.contour_distance(e_pair[1], zs) - dense).max() <= 1e-15
        assert ap.contour_distance(e_pair[1], zs[0]) == ap.contour_distance(e_pair[1], zs)[0]


class TestCompensatedCauchy:
    def test_perturbed_curve_up_to_the_contour(self):
        # chart w + a w^K with K near the Nyquist mode, second trace w^2:
        # at w0 = (1 - d) e^{i theta} the coordinates are f(w0) and w0^2
        a, k = 0.004, 120
        f = lambda w: w + a * w ** k
        e = TraceTuple((trace(f), trace(lambda w: w ** 2)))
        refused = 0
        for d in (1e-1, 1e-2, 1e-3, 1e-5, 1e-7, 1e-9):
            w0 = (1.0 - d) * np.exp(1j * np.array([0.0, 0.4, 1.3, 2.9, -2.0]))
            z = f(w0)
            got, _ = ap._cauchy_many(e.traces, e[0], z, compensated=True)
            assert np.abs(got[0] - z).max() <= 1e-12
            assert np.abs(got[1] - w0 ** 2).max() <= 1e-12
            try:
                ap._cauchy_many(e.traces, e[0], z)
            except TooCloseToContour:
                refused += 1
        assert refused >= 3  # the plain rule refuses the closest targets

    @pytest.mark.parametrize("a2", [0.0, 0.08])
    def test_chart_coordinate_is_the_identity(self, a2):
        # J_jj(z) - z = sum(d_gamma eta_j) / winding sum, and the numerator
        # is N times a zero mean: J_jj is the identity to rounding
        w = lambda z: z + a2 * z ** 2
        e = TraceTuple((trace(w), trace(lambda z: w(z) ** 2)))
        cloud = ap.reconstruct(e, eps=0.2, grid_resolution=32)
        interior = np.nonzero(np.array(cloud.tags) == "interior")[0]
        assert interior.size > 0 and cloud.n_dropped == 0
        diam = ap._z_diameter(ap._contour_samples(e[0]))
        chart = cloud.points[interior, cloud.chart_j[interior]]
        assert np.abs(chart - cloud.source_z[interior]).max() <= 1e-12 * diam


class TestClassify:
    def test_disk_winding_region(self, e_z):
        wf = ap.classify(e_z[0], 48, 0.1)
        inside = wf.points_with_winding(1)
        assert inside.size > 0
        assert np.abs(inside).max() < 0.9  # eps-margin inside the circle
        outside = wf.points_with_winding(0)
        assert np.abs(outside).min() > 1.0

    def test_winding_locally_constant(self, e_z):
        wf = ap.classify(e_z[0], 48, 0.1)
        w = wf.winding.reshape(wf.shape)
        near = wf.near_contour.reshape(wf.shape)
        interior_mask = (~near) & (w == 1)
        # every classified point strictly inside has all classified
        # neighbours with the same winding unless the neighbour is near
        ii, jj = np.nonzero(interior_mask)
        for i, j in zip(ii, jj):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                a, b = i + di, j + dj
                if 0 <= a < wf.shape[0] and 0 <= b < wf.shape[1]:
                    if not near[a, b] and np.abs(wf.grid.reshape(wf.shape)[a, b]) < 0.9:
                        assert w[a, b] == 1

    def test_eps_larger_than_inradius_gives_empty(self, e_z):
        wf = ap.classify(e_z[0], 32, 1.5)
        assert wf.points_with_winding(1).size == 0

    def test_square_chart_has_no_winding_one(self, e_pair):
        wf = ap.classify(e_pair[1], 40, 0.1)
        assert wf.points_with_winding(1).size == 0
        assert wf.points_with_winding(2).size > 0


class TestReconstruct:
    def test_identity_chart_cloud(self, e_z):
        cloud = ap.reconstruct(e_z, eps=0.2, grid_resolution=24)
        interior = cloud.interior_points()
        assert interior.shape[0] > 0
        # every interior point equals its source lattice target
        src = cloud.source_z[np.array(cloud.tags) == "interior"]
        assert np.abs(interior[:, 0] - src).max() < 1e-10

    def test_pair_matches_graph_of_square(self, e_pair):
        cloud = ap.reconstruct(e_pair, eps=0.2, grid_resolution=24)
        interior = cloud.interior_points()
        assert interior.shape[0] > 0
        err = np.abs(interior[:, 1] - interior[:, 0] ** 2).max()
        assert err < 1e-8

    def test_boundary_points_present(self, e_pair):
        cloud = ap.reconstruct(e_pair, eps=0.2, grid_resolution=16)
        nb = sum(1 for t in cloud.tags if t == "boundary")
        assert nb > 0
        bpts = cloud.points[np.array(cloud.tags) == "boundary"]
        assert np.abs(np.abs(bpts[:, 0]) - 1.0).max() < 1e-10

    def test_targets_a_shrunk_contour_leaves_are_dropped(self, e_pair):
        # fields classified on (z, z^2); the tuple (0.8z, 0.64z^2) encloses
        # only the targets with |z| < 0.8, some of them inside its band
        e_p = TraceTuple((trace(lambda z: 0.8 * z), trace(lambda z: 0.64 * z ** 2)))
        fields = [ap.classify(e_pair[j], 32, 0.1) for j in range(2)]
        zs = fields[0].points_with_winding(1)
        outside = int(np.sum(np.abs(zs) > 0.8))
        assert outside > 0
        cloud = ap.reconstruct(e_p, eps=0.1, fields=fields)
        sel = np.array(cloud.tags) == "interior"
        assert cloud.n_dropped == outside
        assert sel.sum() == zs.size - outside
        interior = cloud.points[sel]
        assert np.abs(interior[:, 0] - cloud.source_z[sel]).max() < 1e-12
        assert np.abs(interior[:, 1] - interior[:, 0] ** 2).max() < 1e-12

    def test_constant_trace_merges_to_single_boundary_point(self):
        n = 128
        e = TraceTuple((bc.from_samples(np.full(n, 2.0 + 1j), TWO_PI),))
        cloud = ap.reconstruct(e, eps=0.2, grid_resolution=16)
        assert sum(1 for t in cloud.tags if t == "interior") == 0
        assert cloud.n_points == 1
        assert abs(cloud.points[0, 0] - (2.0 + 1j)) < 1e-12

    def test_shared_fields_give_identical_targets(self, e_pair):
        fields = [ap.classify(e_pair[j], 20, 0.2) for j in range(2)]
        c1 = ap.reconstruct(e_pair, eps=0.2, fields=fields)
        c2 = ap.reconstruct(e_pair, eps=0.2, fields=fields)
        assert np.array_equal(c1.source_z, c2.source_z, equal_nan=True)

    def test_exp_trace(self):
        e = TraceTuple((trace(np.exp),))
        cloud = ap.reconstruct(e, eps=0.2, grid_resolution=24)
        interior = cloud.interior_points()
        assert interior.shape[0] > 0
        src = cloud.source_z[np.array(cloud.tags) == "interior"]
        assert np.abs(interior[:, 0] - src).max() < 1e-10


class TestSimplePreimage:
    @pytest.mark.parametrize("a2", [0.0, 0.08])
    def test_chart_derivative_is_one_on_winding_one_targets(self, a2):
        # J_jj(z) = z on winding-1 targets, so d/dz J_jj = 1 and the preimage
        # is simple: reconstruct needs no separate simple-preimage filter
        w = lambda z: z + a2 * z ** 2
        e = TraceTuple((trace(w), trace(lambda z: w(z) ** 2)))
        n_targets = 0
        for j in range(len(e)):
            zs = ap.classify(e[j], 32, 0.2).points_with_winding(1)
            if zs.size == 0:
                continue
            d = ap._cauchy_many(e[j], e[j], zs, squared=True)
            assert np.abs(d - 1.0).max() <= 1e-10
            n_targets += zs.size
        assert n_targets > 0


class TestImmersionCheck:
    def test_pair_is_immersed(self, e_pair):
        fields = [ap.classify(e_pair[j], 20, 0.2) for j in range(2)]
        rep = ap.immersion_check(e_pair, fields, 2)
        assert rep.applicable and rep.passed
        assert rep.min_margin > 0.1

    def test_single_identity_chart(self, e_z):
        fields = [ap.classify(e_z[0], 20, 0.2)]
        rep = ap.immersion_check(e_z, fields, 1)
        assert bool(rep)
        assert abs(rep.min_margin - 1.0) < 1e-9

    def test_m_too_large(self, e_z):
        with pytest.raises(ValueError):
            ap.immersion_check(e_z, [], 2)

    def test_not_applicable_without_winding_one(self, e_pair):
        fields = [ap.classify(e_pair[1], 20, 0.2)]
        rep = ap.immersion_check(TraceTuple((e_pair[1],)), fields, 1)
        assert not rep.applicable


class TestCsvRoundtrip:
    def test_roundtrip(self, e_pair, tmp_path):
        cloud = ap.reconstruct(e_pair, eps=0.2, grid_resolution=16)
        path = str(tmp_path / "cloud.csv")
        cloud.to_csv(path)
        back = ap.ReconstructedCloud.from_csv(path)
        assert np.allclose(back.points, cloud.points)
        assert back.tags == cloud.tags
        assert np.array_equal(back.chart_j, cloud.chart_j)
