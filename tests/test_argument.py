"""Contour-integral reconstruction of immersed surface images."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitlab import argument as ap
from eitlab import boundary as bc
from eitlab.errors import DimensionMismatch, EmptyCloud, TooCloseToContour
from eitlab.holomorphic import TraceTuple

TWO_PI = 2.0 * np.pi


def trace(fn, n=256):
    th = np.arange(n) * (TWO_PI / n)
    return bc.from_samples(fn(np.exp(1j * th)), TWO_PI)


def node_plan(eta, dists, squared=False):
    """_cauchy_many's node plan for targets at the given distances."""
    return ap._node_plan(eta, 40.0 * ap._z_diameter(ap._contour_samples(eta)),
                         dists, squared)


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
        # the squared kernel, which immersion_check runs, gives d/dz of the
        # Cauchy integral: of z through the z chart 1, of z^2 2z, and 0 at a
        # point outside
        z = np.array([0.4 - 0.2j, 3.0 + 0j])
        got = ap._cauchy_many(e_pair, e_pair[0], z, squared=True)
        assert abs(got[0, 0] - 1.0) < 1e-11
        assert abs(got[1, 0] - 2 * z[0]) < 1e-11
        assert abs(got[0, 1]) < 1e-11

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

    def test_target_between_chord_and_arc_raises(self):
        # the 8-mode circle's polygon has 32 chords; at radius 0.997 the
        # target lies outside the chord but inside the arc, so the polygon
        # does not enclose it and the curve does: the certificate refuses it
        e8 = trace(lambda z: z, n=8)
        z = 0.997 * np.exp(1j * np.pi / 32)
        samples = ap._contour_samples(e8)
        assert ap._crossing_winding(samples, np.array([z.real]), np.array([z.imag]))[0, 0] == 0
        with pytest.raises(TooCloseToContour):
            ap.winding_number(e8, z)
        assert ap.winding_number(e8, 0.5j) == 1


class TestStackedNumerators:
    @pytest.mark.parametrize("squared", [False, True])
    def test_rows_equal_single_numerator_calls(self, e_pair, squared):
        # targets at several contour distances, hence several node counts
        zs = np.array([0.0, 0.3 + 0.2j, 0.9, 0.97j, -0.99, 2.0 + 0.5j])
        # the constant 1's row is the compensated rule's winding row; the
        # target outside divides by its zero winding sum
        with np.errstate(divide="ignore", invalid="ignore"):
            _, winding = ap._cauchy_many(e_pair, e_pair[0], zs, squared=squared,
                                         compensated=True)
        rows = np.vstack([winding, ap._cauchy_many(e_pair, e_pair[0], zs, squared=squared)])
        nums = (None, e_pair[0], e_pair[1])
        assert rows.shape == (len(nums), zs.size)
        assert len(set(node_plan(e_pair[0], ap.contour_distance(e_pair[0], zs),
                                 squared))) > 2
        for row, eta_k in zip(rows, nums):
            single = ap._cauchy_many(eta_k, e_pair[0], zs, squared=squared)
            assert single.shape == (zs.size,)
            assert np.array_equal(row, single)

    @pytest.mark.parametrize("n_traces", [1, 2, 4])
    def test_one_inverse_fft_of_the_numerators_per_count(self, monkeypatch, n_traces):
        # each pass transforms the block [contour | derivative | numerators]
        # once: one inverse FFT, whatever the number of numerators
        e = TraceTuple(tuple(trace(lambda z, p=p: z ** p) for p in range(1, n_traces + 1)))
        zs = np.array([0.0, 0.3 + 0.2j, 0.9, 0.97j, -0.99])
        counts = set(node_plan(e[0], ap.contour_distance(e[0], zs)).tolist())
        ifft, real_raw = np.fft.ifft, ap._cauchy_raw
        transforms, passes = [], []

        def counting_ifft(*args, **kwargs):
            transforms.append(1)
            return ifft(*args, **kwargs)

        def counting_raw(*args):
            before = len(transforms)
            out = real_raw(*args)
            passes.append(len(transforms) - before)
            return out

        monkeypatch.setattr(np.fft, "ifft", counting_ifft)
        monkeypatch.setattr(ap, "_cauchy_raw", counting_raw)
        got, _ = ap._cauchy_many(e, e[0], zs, compensated=True)
        assert len(passes) == len(counts) > 2
        assert passes == [1] * len(counts)
        for p, row in enumerate(got, 1):
            assert np.abs(row - zs ** p).max() <= 1e-12

    @pytest.mark.parametrize("compensated", [False, True])
    def test_one_4n_sample_per_call(self, e_pair, compensated, monkeypatch):
        # the contour and its derivative are sampled at 4N by one call on
        # either rule: the node plan reads the first row, the plain rule's
        # exclusion band the second; the passes here take N nodes
        sizes, real = [], bc._samples
        monkeypatch.setattr(bc, "_samples",
                            lambda c, m, *a: sizes.append((c.shape[1], m)) or real(c, m, *a))
        zs = np.array([0.0, 0.3 + 0.2j])
        ap._cauchy_many(e_pair, e_pair[0], zs, compensated=compensated)
        n = e_pair.n_modes
        assert sizes == [(2, 4 * n), (4, n)]

    @pytest.mark.parametrize("n", [64, 256])
    def test_contour_sample_rows_have_each_columns_bits(self, n):
        # the one 4N sample of [eta_j | d_gamma eta_j] equals sampling each
        # alone, so the plan and the band read the bits they read before
        eta = trace(lambda z: z + 0.04 * z ** 3, n=n)
        d = bc.derivative_gamma(eta)
        rows = bc._samples(np.column_stack([eta.coeffs, d.coeffs]), 4 * n)
        assert np.array_equal(rows[0], ap._contour_samples(eta))
        assert np.array_equal(rows[1], d.values(4 * n))

    def test_plain_band_is_four_arclengths_per_count(self, e_pair):
        # a target this close takes the capped count, and the unit circle's
        # arclength is 2 pi: the band is 4 * 2 pi / 16384 = 1.53e-3
        band = 4.0 * TWO_PI / ap._MAX_NODES
        for d in (0.9 * band, 1.1 * band):
            z = complex(1.0 - d, 0.0)
            assert node_plan(e_pair[0], np.array([d]))[0] == ap._MAX_NODES
            if d < band:
                with pytest.raises(TooCloseToContour):
                    ap.cauchy_integral(e_pair[1], e_pair[0], z)
            else:
                assert abs(ap.cauchy_integral(e_pair[1], e_pair[0], z) - z ** 2) < 1e-12

    def test_numerator_on_another_grid_raises(self, e_pair):
        # the numerators are columns of the contour's coefficient block
        with pytest.raises(DimensionMismatch):
            ap.cauchy_integral(trace(lambda z: z ** 2, n=128), e_pair[0], 0.3)


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
            raw = node_plan(e_pair[0], dists)
        counts = node_plan(e_pair[0], dists)
        passes = []
        real_raw = ap._cauchy_raw

        def counting_raw(*args):
            passes.append(args[-1])
            return real_raw(*args)

        monkeypatch.setattr(ap, "_cauchy_raw", counting_raw)
        got, _ = ap._cauchy_many(e_pair, e_pair[0], zs, compensated=True)
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
            got, _ = ap._cauchy_many(e, e[0], z, compensated=True)
            assert np.abs(got[0] - z).max() <= 1e-12
            assert np.abs(got[1] - w0 ** 2).max() <= 1e-12
            try:
                ap._cauchy_many(e, e[0], z)
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

    def test_image_points_are_targets_enclosed_once(self, e_pair):
        # z^2 encloses 0.3 twice and z once; neither encloses 1.5
        zs = np.array([0.3 + 0j, 1.5 + 0j])
        p, once = ap._image_points(e_pair, 0, zs)
        assert p.shape == (2, 2) and once.tolist() == [True, False]
        assert np.abs(p[0] - [zs[0], zs[0] ** 2]).max() < 1e-12
        _, once = ap._image_points(e_pair, 1, zs)
        assert once.tolist() == [False, False]


class TestKernelWorkingSet:
    @pytest.mark.parametrize("squared", [False, True])
    def test_bounded_search_keeps_the_plan(self, e_pair, monkeypatch, squared):
        # targets from the centre up to 1e-3 of the contour: the search stops
        # short of the nearest sample for the targets that take N nodes, and
        # every target still gets the count of its exact distance
        rng = np.random.default_rng(7)
        zs = (1.0 - np.geomspace(1.0, 1e-3, 300)) * np.exp(2j * np.pi * rng.random(300))
        want = node_plan(e_pair[0], ap.contour_distance(e_pair[0], zs), squared)
        floor = e_pair.n_modes * (2 if squared else 1)
        assert np.any(want == floor) and np.any(want > floor)
        plans = []
        real_plan = ap._node_plan

        def recording_plan(eta_j, c_q, dists, sq=False):
            plans.append(real_plan(eta_j, c_q, dists, sq))
            return plans[-1]

        monkeypatch.setattr(ap, "_node_plan", recording_plan)
        with pytest.raises(TooCloseToContour):  # the plain rule refuses the closest
            ap._cauchy_many(None, e_pair[0], zs, squared=squared)
        if not squared:  # the compensated rule takes them all
            ap._cauchy_many(e_pair, e_pair[0], zs, compensated=True)
        assert plans
        for counts in plans:
            assert np.array_equal(counts, want)

    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("block", [1 << 40, 1], ids=["one_tile", "one_row_per_tile"])
    def test_tiles_equal_one_tile(self, e_pair, monkeypatch, block, squared):
        # each target's sums use only its own kernel row, so the default
        # tiles give the bits of one tile.  A one-row tile's product goes to
        # BLAS's dot kernel, not gemv, which sums the nodes in another order:
        # its rows differ by up to 8.4 eps of their largest value
        zs = ap.classify(e_pair[0], 48, 0.1).points_with_winding(1)

        def sums():  # the row-sums, then one row per numerator
            return np.vstack([ap._cauchy_many(None, e_pair[0], zs, squared=squared),
                              ap._cauchy_many(e_pair, e_pair[0], zs, squared=squared)])

        tiled = sums()
        with monkeypatch.context() as m:
            m.setattr(bc, "_EVAL_BLOCK", block)
            other = sums()
        if block > 1:
            assert np.array_equal(tiled, other)
        else:
            assert np.array_equal(tiled[0], other[0])  # the row-sums
            for a, b in zip(tiled, other):
                assert np.abs(a - b).max() <= 16 * np.finfo(float).eps * np.abs(a).max()

    def test_dense_cloud_kernel_memory(self, e_pair, traced_peak):
        # the benchmark's dense cloud: 6472 targets over six node counts, up
        # to 3160 of them at 256 nodes.  One tile of _EVAL_BLOCK complex
        # entries (2.1 MB) is built at a time; the whole kernel and the
        # difference it was built from took 13.8 MB
        zs = ap.classify(e_pair[0], 160, 0.2).points_with_winding(1)
        assert zs.size == 6472
        peak = traced_peak(lambda: ap._cauchy_many(e_pair, e_pair[0], zs,
                                                   compensated=True))
        assert peak <= 4.0


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


CURVES = {
    "z": lambda z: z,
    "z2": lambda z: z ** 2,
    "z2_perturbed": lambda z: z ** 2 + 0.01 * z + 0.008 * z ** 3,
    "z3": lambda z: z ** 3,
}


def cauchy_windings(eta, zs):
    """Rounded plain Cauchy sums at zs, checked to round cleanly."""
    vals = ap._cauchy_many(None, eta, zs).real
    assert np.abs(vals - np.round(vals)).max() < 0.1
    return np.round(vals).astype(int)


def vertex_row_windings(eta, n):
    """Crossing windings on about n x n targets whose rows pass through samples."""
    samples = ap._contour_samples(eta)
    xs = np.linspace(samples.real.min() - 0.1, samples.real.max() + 0.1, n)
    ys = np.unique(samples.imag)[::max(1, samples.size // n)]
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()
    return zs, ap._crossing_winding(samples, xs, ys).ravel()


def assert_far_windings_match(eta, grid, eps):
    wf = ap.classify(eta, grid, eps)
    assert np.array_equal(wf.near_contour, ap.contour_distance(eta, wf.grid) <= eps)
    far = ~wf.near_contour
    assert np.array_equal(wf.winding[far], cauchy_windings(eta, wf.grid[far]))
    assert np.all(wf.winding[wf.near_contour] == 0)
    # a vertex on a lattice row must count once
    zs, winding = vertex_row_windings(eta, grid)
    far = ap.contour_distance(eta, zs) > eps
    assert np.array_equal(winding[far], cauchy_windings(eta, zs[far]))


polynomials = st.lists(st.complex_numbers(max_magnitude=0.01), min_size=3, max_size=3)


class TestCrossingWinding:
    @pytest.mark.parametrize("grid", [48, 160])
    @pytest.mark.parametrize("name", list(CURVES))
    def test_equals_rounded_cauchy_sum_on_far_targets(self, name, grid):
        assert_far_windings_match(trace(CURVES[name], n=512), grid, 0.05)

    @settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @given(st.integers(1, 3), polynomials)
    def test_perturbed_polynomials(self, k, a):
        eta = trace(lambda z: z ** k + a[0] * z + a[1] * z ** 2 + a[2] * z ** 3, n=128)
        assert_far_windings_match(eta, 24, 0.1)

    def test_vertices_on_a_lattice_row_count_once(self):
        # the diamond's vertices (1, 0) and (-1, 0) lie on the row y = 0
        diamond = np.array([1.0, 1j, -1.0, -1j])
        w = ap._crossing_winding(diamond, np.array([-2.0, 0.0, 2.0]), np.array([0.0]))
        assert w[:, 0].tolist() == [0, 1, 0]

    def test_classify_refuses_eps_inside_the_certificate(self):
        # 8-mode circle: half its longest chord is 0.098 and the chord-to-arc
        # deviation adds (2 pi / 32)^2 / 8, so the bound is 0.1028
        e8 = trace(lambda z: z, n=8)
        _, bound = ap._winding_bound(e8)
        assert abs(bound - (np.sin(np.pi / 32) + (np.pi / 16) ** 2 / 8)) < 1e-12
        with pytest.raises(TooCloseToContour):
            ap.classify(e8, 24, 0.1)
        assert ap.classify(e8, 24, 0.11).points_with_winding(1).size > 0


class TestReconstruct:
    def test_identity_chart_cloud(self, e_z):
        cloud = ap.reconstruct(e_z, eps=0.2, grid_resolution=24)
        interior = cloud.interior_points()
        assert interior.shape[0] > 0
        # every interior point equals its source lattice target
        src = cloud.source_z[np.array(cloud.tags) == "interior"]
        assert np.abs(interior[:, 0] - src).max() < 1e-10

    def test_samples_the_tuple_at_4n_once(self, e_pair, monkeypatch):
        # one block sample gives the boundary points and the chart
        # diameters; each Cauchy call samples its own contour and node counts
        samples, real_many = [], ap._cauchy_many
        inside = []
        real_samples = bc._samples

        def recording(c, m, *args):
            if not inside:
                samples.append((c.shape[1], m))
            return real_samples(c, m, *args)

        def marked_many(*args, **kwargs):
            inside.append(1)
            try:
                return real_many(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(bc, "_samples", recording)
        monkeypatch.setattr(ap, "_cauchy_many", marked_many)
        cloud = ap.reconstruct(e_pair, eps=0.2, grid_resolution=24)
        assert cloud.interior_points().shape[0] > 0
        assert [m for cols, m in samples if cols == len(e_pair)] == [4 * e_pair.n_modes]

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


def rowwise_csv(cloud, path):
    """The row-by-row writer the vectorized to_csv replaced."""
    n = cloud.n_coords
    header = []
    for k in range(1, n + 1):
        header += [f"re_{k}", f"im_{k}"]
    header += ["tag", "chart_j", "source_z_re", "source_z_im"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(cloud.n_points):
            row = []
            for k in range(n):
                row += [repr(float(cloud.points[i, k].real)),
                        repr(float(cloud.points[i, k].imag))]
            row += [cloud.tags[i], int(cloud.chart_j[i]),
                    repr(float(cloud.source_z[i].real)),
                    repr(float(cloud.source_z[i].imag))]
            w.writerow(row)


class TestRefusals:
    @pytest.mark.parametrize("case, error, match", [
        ("eps 0", ValueError, "eps must be positive"),
        ("eps -0.1", ValueError, "eps must be positive"),
        ("header-only cloud", EmptyCloud, "no points"),
    ])
    def test_refused(self, e_z, tmp_path, case, error, match):
        if case.startswith("eps"):
            call = lambda: ap.classify(e_z[0], 16, float(case.split()[1]))
        else:
            path = tmp_path / "cloud.csv"
            path.write_text("re_1,im_1,tag,chart_j,source_z_re,source_z_im\r\n")
            call = lambda: ap.ReconstructedCloud.from_csv(str(path))
        with pytest.raises(error, match=match):
            call()


class TestCsvRoundtrip:
    def test_bytes_equal_rowwise_writer(self, e_pair, tmp_path):
        cloud = ap.reconstruct(e_pair, eps=0.2, grid_resolution=16)
        cloud.points[0, 1] = complex(-0.0, 1e-300)
        assert np.isnan(cloud.source_z.real).any()
        assert cloud.n_coords == 2 and "interior" in cloud.tags
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        cloud.to_csv(str(fast))
        rowwise_csv(cloud, str(slow))
        assert b"-0.0," in fast.read_bytes() and b",nan," in fast.read_bytes()
        assert fast.read_bytes() == slow.read_bytes()

    def test_roundtrip(self, e_pair, tmp_path):
        cloud = ap.reconstruct(e_pair, eps=0.2, grid_resolution=16)
        path = str(tmp_path / "cloud.csv")
        cloud.to_csv(path)
        back = ap.ReconstructedCloud.from_csv(path)
        assert np.allclose(back.points, cloud.points)
        assert back.tags == cloud.tags
        assert np.array_equal(back.chart_j, cloud.chart_j)
