"""Hausdorff distance, directed deviations, fill distance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from eitlab import metrics as mt
from eitlab.errors import EmptyCloud


class TestAgainstBruteForce:
    def test_fifty_random_pairs_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            na, nb = rng.integers(2, 40, size=2)
            dim = int(rng.integers(1, 4))
            a = rng.standard_normal((na, dim))
            b = rng.standard_normal((nb, dim))
            fast = mt.hausdorff(a, b)
            slow = mt.hausdorff(a, b, brute_force=True)
            assert fast.d_h == slow.d_h
            assert fast.r_ab == slow.r_ab
            assert fast.r_ba == slow.r_ba


def clouds(count):
    """count point clouds in one space: R^1..R^3 (float) or C^1..C^3 (complex)."""

    @st.composite
    def build(draw):
        dim = draw(st.integers(1, 3))
        cplx = draw(st.booleans())
        coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
        out = []
        for _ in range(count):
            m = draw(st.integers(1, 30))
            pts = draw(arrays(float, (m, dim), elements=coord))
            if cplx:
                pts = pts + 1j * draw(arrays(float, (m, dim), elements=coord))
            out.append(pts)
        return out

    return build()


class TestAxioms:
    @settings(deadline=None, derandomize=True, database=None)
    @given(clouds(1))
    def test_identity(self, cs):
        (a,) = cs
        assert mt.hausdorff(a, a).d_h == 0.0

    @settings(deadline=None, derandomize=True, database=None)
    @given(clouds(2))
    def test_symmetry(self, cs):
        a, b = cs
        ab, ba = mt.hausdorff(a, b), mt.hausdorff(b, a)
        assert ab.d_h == ba.d_h
        assert (ab.r_ab, ab.r_ba) == (ba.r_ba, ba.r_ab)

    @settings(deadline=None, derandomize=True, database=None)
    @given(clouds(3))
    def test_triangle_inequality(self, cs):
        a, b, c = cs
        ab = mt.hausdorff(a, b).d_h
        bc = mt.hausdorff(b, c).d_h
        ac = mt.hausdorff(a, c).d_h
        assert ac <= ab + bc + 1e-12


class TestOracles:
    def test_singleton_vs_pair(self):
        a = np.array([0.0 + 0.0j])
        b = np.array([0.0 + 0.0j, 3.0 + 4.0j])
        res = mt.hausdorff(a, b)
        assert abs(res.d_h - 5.0) < 1e-15
        assert res.r_ab == 5.0  # covering B from A needs radius 5
        assert res.r_ba == 0.0

    def test_concentric_circles(self):
        th = np.linspace(0, 2 * np.pi, 400, endpoint=False)
        a = np.exp(1j * th)
        b = 1.1 * np.exp(1j * th)
        assert abs(mt.hausdorff(a, b).d_h - 0.1) < 1e-4

    def test_complex_flattening(self):
        a = np.array([[1.0 + 2.0j, 0.0 + 0.0j]])
        flat = mt.cloud_from_complex(a)
        assert flat.shape == (1, 4)
        assert list(flat[0]) == [1.0, 2.0, 0.0, 0.0]
        # a real cloud passes through, with no imaginary columns
        assert mt.cloud_from_complex(np.array([[1.0, 2.0]])).tolist() == [[1.0, 2.0]]

    def test_real_and_complex_lines_agree(self):
        # a 1-D array is m points whether real or complex: on the real axis
        # the two give the same distances
        a, b = np.array([0.0, 1.0]), np.array([0.0, 5.0])
        real, cplx = mt.hausdorff(a, b), mt.hausdorff(a + 0j, b + 0j)
        assert (real.d_h, real.r_ab, real.r_ba) == (4.0, 4.0, 1.0)
        assert (cplx.d_h, cplx.r_ab, cplx.r_ba) == (4.0, 4.0, 1.0)
        line = np.array([0.0, 1.0, 3.0])
        assert mt.fill_distance(line) == mt.fill_distance(line + 0j) == 2.0

    def test_witness_indices(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.0], [5.0]])
        res = mt.hausdorff(a, b)
        assert res.witness_b == 1  # b[1] = 5 is farthest from A
        assert res.d_h == 4.0


class TestMonotonicity:
    def test_subsampling_grows_directed_deviation(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((200, 2))
        full = mt.hausdorff(b, b).r_ab
        half = mt.hausdorff(b[::2], b).r_ab
        quarter = mt.hausdorff(b[::4], b).r_ab
        assert full <= half <= quarter


class TestFillDistance:
    def test_uniform_line(self):
        pts = np.linspace(0.0, 1.0, 11)[:, None]
        assert abs(mt.fill_distance(pts) - 0.1) < 1e-15

    def test_single_point(self):
        assert mt.fill_distance(np.array([[0.0, 0.0]])) == 0.0

    def test_gap_detected(self):
        pts = np.concatenate([np.linspace(0, 1, 11), [3.0]])[:, None]
        assert abs(mt.fill_distance(pts) - 2.0) < 1e-15


class TestErrors:
    def test_empty_cloud(self):
        for dtype in (float, complex):
            with pytest.raises(EmptyCloud):
                mt.hausdorff(np.empty((0, 2), dtype), np.ones((3, 2), dtype))
            with pytest.raises(EmptyCloud):
                mt.hausdorff(np.ones((3, 2), dtype), np.empty((0, 2), dtype))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mt.hausdorff(np.ones((3, 2)), np.ones((3, 3)))
