"""DN backends: analytic disk, conformal images, FEM surfaces, meshes."""

import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import Delaunay

from eitlab import boundary as bc
from eitlab import dn as dnm
from eitlab import experiments as ex
from eitlab.errors import (
    InterpolationUnderresolved,
    NonManifoldMesh,
    SingularInterior,
    UnivalenceViolated,
)

TWO_PI = 2.0 * np.pi


class TestDiskDN:
    def test_symbol_exactness(self):
        n = 256
        lam = dnm.dn_disk(n)
        th = np.arange(n) * (TWO_PI / n)
        for m in (1, 3, 17, 100):
            f = bc.from_samples(np.exp(1j * m * th), TWO_PI)
            out = lam.apply(f).values()
            assert np.abs(out - m * np.exp(1j * m * th)).max() < 1e-10

    def test_kills_constants(self):
        lam = dnm.dn_disk(32)
        f = bc.from_samples(np.full(32, 2.5), TWO_PI)
        assert np.abs(lam.apply(f).values()).max() < 1e-12

    def test_rescaled_length(self):
        n = 64
        length = 4.0 * np.pi  # radius-2 disk: eigenvalues |m| * 2pi / L
        lam = dnm.dn_disk(n, length)
        x = np.arange(n) * (length / n)
        f = bc.from_samples(np.cos(2 * np.pi * 3 * x / length), length)
        out = lam.apply(f).values().real
        assert np.abs(out - 1.5 * np.cos(2 * np.pi * 3 * x / length)).max() < 1e-11

    def test_symmetric(self):
        lam = dnm.dn_disk(64)
        assert np.abs(lam.matrix - lam.matrix.T).max() < 1e-12


class TestConformalDN:
    def test_univalence_guard(self):
        with pytest.raises(UnivalenceViolated):
            dnm.ConformalDomain((0.6,))

    @pytest.mark.parametrize("coeffs,name", [
        ((np.nan,), "a_2"), ((0.1, np.nan), "a_3"), ((0.1, 0.0, np.inf), "a_4"),
        ((complex(0.1, np.nan),), "a_2")])
    def test_non_finite_coefficient_refused(self, coeffs, name):
        # sum k|a_k| >= 1 is False for NaN, so the univalence guard alone
        # let NaN through to a bare error deep inside dn_conformal
        with pytest.raises(ValueError, match=f"coefficient {name} = .* is not finite"):
            dnm.ConformalDomain(coeffs)

    def test_zero_perturbation_recovers_disk(self):
        n = 64
        lam = dnm.dn_conformal(dnm.ConformalDomain((0.0,)), n)
        assert lam.length == TWO_PI
        assert np.abs(lam.matrix - dnm.dn_disk(n).matrix).max() < 1e-10

    @pytest.mark.parametrize("coeffs,n", [
        ((0.04,), 256), ((0.08,), 64), ((0.05, 0.03, 0.02), 256),
        # at a2 = 1e-6 the rounding left in the mean of |Phi'| - its mean
        # (about 5e-16) exceeds 1e-10 of that deviation's norm, so testing
        # the mean before integrating raised NonZeroMean here
        ((1e-6,), 64), ((1e-6,), 256)])
    def test_closed_form_oracle(self, coeffs, n):
        # harmonic extension of cos(m theta) through the map has normal
        # derivative m cos(m theta) / |Phi'| in arclength parametrization
        dom = dnm.ConformalDomain(coeffs)
        lam = dnm.dn_conformal(dom, n)
        th, alpha = _theta_of_s(dom, n)
        speed = alpha * np.abs(dom.map_derivative(th))
        for m in (1, 3, 8):
            f = bc.from_samples(np.cos(m * th), lam.length)
            got = lam.apply(f).values().real
            assert np.abs(got - m * np.cos(m * th) / speed).max() < 1e-9

    def test_underresolved_correspondence_raises(self):
        # |Phi'| = |1 + 0.98 z| nearly vanishes at z = -1: 16 modes leave
        # 1.02e-8 of E's energy past 2N, 64 modes 3.9e-12; the printed value
        # pins the thin margin against the 1e-8 tolerance
        dom = dnm.ConformalDomain((0.49,))
        with pytest.raises(InterpolationUnderresolved,
                           match="spectrum tail 1.02e-08 exceeds"):
            dnm.dn_conformal(dom, 16)
        dnm.dn_conformal(dom, 64)

    def test_symmetry(self):
        n = 128
        b = dnm.dn_conformal(dnm.ConformalDomain((0.05,)), n).coeffs
        assert np.array_equal(b, b.conj().T)

    @pytest.mark.parametrize("coeffs", [(0.08,), (0.05, 0.03, 0.02)])
    @pytest.mark.parametrize("n", [32, 256])
    def test_matches_complex_gram_reference(self, coeffs, n):
        """The real Gram against the complex one on the 4N grid the code
        used, from the same u(theta): they differ only in the Gram algebra,
        measured 4.4e-16 relative."""
        dom = dnm.ConformalDomain(coeffs)
        assert dnm._gram_factor(dom, n, 4 * n)[1] <= dnm._TAIL_TOL * n
        m = dnm.dn_conformal(dom, n).matrix
        matrix = _complex_gram_dn(dom, n, 4 * n)
        assert np.abs(m - matrix).max() <= 4e-15 * np.abs(matrix).max()

    # 4N tails 1.3e-7 and 9.6e-8
    @pytest.mark.parametrize("coeffs", [(0.05, 0.03, 0.02), (0.3,)])
    def test_refined_grid_matches_complex_gram_reference(self, coeffs):
        """At N = 16 these fail the 4N tail check, and the code's 8N result
        matches the complex Gram on 8N nodes, measured 3.3e-16 and 4.2e-16."""
        n = 16
        dom = dnm.ConformalDomain(coeffs)
        assert dnm._gram_factor(dom, n, 4 * n)[1] > dnm._TAIL_TOL * n
        m = dnm.dn_conformal(dom, n).matrix
        matrix = _complex_gram_dn(dom, n, 8 * n)
        assert np.abs(m - matrix).max() <= 4e-15 * np.abs(matrix).max()

    @pytest.mark.parametrize("coeffs", [(0.08,), (0.05, 0.03, 0.02)])
    def test_4n_grid_matches_16n_reference(self, coeffs):
        """The 4N result against a reference on 16N nodes: what differs is
        the rounding of u(theta) on each grid, 2.2e-14 and 2.8e-14 measured."""
        n = 256
        dom = dnm.ConformalDomain(coeffs)
        m = dnm.dn_conformal(dom, n).matrix
        matrix = _complex_gram_dn(dom, n, 16 * n)
        assert np.abs(m - matrix).max() <= 5e-14 * np.abs(matrix).max()

    def test_gauge(self):
        n = 64
        m = dnm.dn_conformal(dnm.ConformalDomain((0.05,)), n).matrix
        ones = np.ones(n)
        assert np.abs(m @ ones).max() < 1e-10
        assert np.abs(ones @ m).max() < 1e-10

    def test_spectra_memory(self, traced_peak):
        # the 4N grid resolves this domain.  Held at once: the Gram factor
        # w, 2(2N + 1) x (N + 2) reals, one block of the cos/sin table,
        # _EVAL_BLOCK reals, that block's spectra, (2N + 1) complex per mode,
        # and its tail terms, N + 1 reals per mode.  0.2 MB more is left for
        # the 4N-sample vectors.  Measured 4.28 MB of the 4.68 MB under
        # numpy 2.4; on the 8N grid it took 6.45 MB, and holding the whole
        # 8N table beside w took 10.05 MB
        n = 256
        modes = bc._EVAL_BLOCK // (4 * n)
        w = 2 * (2 * n + 1) * (n + 2) * 8
        block = bc._EVAL_BLOCK * 8 + modes * ((2 * n + 1) * 16 + (n + 1) * 8)
        peak = traced_peak(lambda: dnm.dn_conformal(dnm.ConformalDomain((0.04,)), n))
        assert peak <= (w + block) / 1e6 + 0.2

    def test_perturbation_size_decreases(self):
        n = 64
        lam = dnm.dn_disk(n)
        ts = []
        for a2 in (0.08, 0.04, 0.02):
            op = dnm.dn_conformal(dnm.ConformalDomain((a2,)), n)
            ts.append(bc.operator_norm(op - lam, 1, 0))
        assert ts[0] > ts[1] > ts[2] > 0


def _theta_of_s(domain, n):
    """theta at the N arclength nodes s_i = 2 pi i / N, and the scale alpha.

    s(theta) = alpha int_0^theta |Phi'| with alpha = 2 pi / perimeter, both
    integrals by 200-node Gauss-Legendre, is inverted by Newton's method
    from theta = s.
    """
    x, w = np.polynomial.legendre.leggauss(200)

    def arclength(th):
        speed = np.abs(domain.map_derivative(0.5 * th[:, None] * (x + 1.0)))
        return 0.5 * th * (speed @ w)

    alpha = TWO_PI / arclength(np.array([TWO_PI]))[0]
    s = np.arange(n) * (TWO_PI / n)
    th = s.copy()
    for _ in range(50):
        step = (arclength(th) - s / alpha) / np.abs(domain.map_derivative(th))
        th -= step
        if np.abs(step).max() <= 1e-15:
            break
    return th, alpha


def _complex_gram_dn(domain, n, fine):
    """dn_conformal's matrix from the full complex Gram on `fine` theta nodes.

    u(theta) follows dn_conformal's recipe: the real, zero-mean deviation of
    |Phi'| from its mean, integrated by J.  All N exponentials
    E_k = exp(i k u) are then sampled, taken to their disk spectra by a
    complex FFT, and b = W^H W with W the spectra weighted by sqrt|p|.
    """
    theta_f = np.arange(fine) * (TWO_PI / fine)
    speed_f = np.abs(domain.map_derivative(theta_f))
    mean_speed = np.mean(speed_f)
    dev = bc.from_samples(speed_f - mean_speed, TWO_PI)
    dev = bc.BoundaryFunction(np.r_[0.0, dev.coeffs[1:]], TWO_PI)
    per_f = bc.integrate_J(dev).values().real
    per_f = per_f - per_f[0]
    u_f = theta_f + per_f / mean_speed
    e = np.exp(1j * np.outer(u_f, bc.mode_numbers(n)))
    w = np.sqrt(np.abs(bc.mode_numbers(fine)))[:, None] * np.fft.fft(e, axis=0) / fine
    b = w.conj().T @ w
    return bc.BoundaryOperator(0.5 * (b + b.conj().T), TWO_PI).matrix


class TestDiskMesh:
    def test_euler_characteristic(self):
        mesh = dnm.unit_disk_mesh(8)
        assert mesh.euler_characteristic == 1

    def test_boundary_loop_on_unit_circle(self):
        mesh = dnm.unit_disk_mesh(8)
        r = np.linalg.norm(mesh.vertices[mesh.boundary_loop], axis=1)
        assert np.abs(r - 1.0).max() < 1e-12

    def test_mesh_quality(self):
        for res in (8, 16, 24):
            assert dnm.unit_disk_mesh(res).min_angle_deg() >= 15.0


class TestFemDN:
    def test_disk_convergence(self):
        n = 32
        lam = dnm.dn_disk(n)
        errs = []
        for rings in (12, 24, 48):
            mesh = dnm.unit_disk_mesh(rings)
            op = dnm.dn_fem(mesh, n_modes=n, rescale_to=TWO_PI)
            errs.append(bc.operator_norm(op - lam, 1, 0))
        assert errs[0] / errs[1] > 1.7
        assert errs[1] / errs[2] > 1.7

    def test_symmetry_exact(self):
        op = dnm.dn_fem(dnm.unit_disk_mesh(12), n_modes=64)
        assert np.array_equal(op.coeffs, op.coeffs.conj().T)

    def test_only_p2_elements(self):
        with pytest.raises(ValueError, match="P2 elements only"):
            dnm.dn_fem(dnm.unit_disk_mesh(4), n_modes=16, order=1)

    def test_rescaling_law(self):
        # DN eigenvalues scale as 1/alpha under similarity rescaling
        n = 64
        mesh = dnm.unit_disk_mesh(16)
        op1 = dnm.dn_fem(mesh, n_modes=n, rescale_to=TWO_PI)
        op2 = dnm.dn_fem(mesh, n_modes=n, rescale_to=2 * TWO_PI)
        th1 = np.arange(n) * (op1.length / n)
        th2 = np.arange(n) * (op2.length / n)
        f1 = bc.from_samples(np.cos(2 * np.pi * 3 * th1 / op1.length), op1.length)
        f2 = bc.from_samples(np.cos(2 * np.pi * 3 * th2 / op2.length), op2.length)
        v1 = op1.apply(f1).values().real.max()
        v2 = op2.apply(f2).values().real.max()
        assert abs(v1 / v2 - 2.0) < 0.01

    @staticmethod
    def _moved_and_disc(pert):
        """How far `pert` lies from the DN map of unit_disk_mesh(16), and
        that map's discretization error, both H^1 -> L2 at N = 32."""
        base = dnm.dn_fem(dnm.unit_disk_mesh(16), n_modes=32, rescale_to=TWO_PI)
        return (bc.operator_norm(pert - base, 1, 0),
                bc.operator_norm(base - dnm.dn_disk(32), 1, 0))

    def test_conformal_factor_invariance(self):
        # rho = 1 on the boundary: the DN map must not move beyond
        # discretization error; n_modes stays inside the resolved band
        mesh = dnm.unit_disk_mesh(16)
        r = np.linalg.norm(mesh.vertices, axis=1)
        rho = 1.0 + 0.8 * np.clip(1.0 - r, 0.0, 1.0) ** 2
        pert = dnm.dn_fem(mesh.with_conformal_factor(rho), n_modes=32,
                          rescale_to=TWO_PI)
        moved, disc = self._moved_and_disc(pert)
        assert moved < 2.0 * disc

    def test_anisotropic_metric_fails_invariance_check(self):
        # the fem_metric family's edge scaling is identity on the boundary
        # but moves the conformal class, so the check above must fail on it
        # (moved 2.4e-2 against 2 x 2.4e-3)
        cfg = ex.ExperimentConfig(
            {"kind": "disk"},
            {"kind": "fem_metric", "resolution": 16, "parameter_list": [0.05]},
            "z", n_modes=32)
        moved, disc = self._moved_and_disc(ex._perturbed_dn(cfg)(0.05))
        assert moved > 2.0 * disc

    @pytest.mark.parametrize("n_modes", [32, 128])
    @pytest.mark.parametrize("rescale_to", [None, TWO_PI])
    @pytest.mark.parametrize("with_rho", [False, True])
    def test_matches_nodal_schur_reference(self, n_modes, rescale_to, with_rho):
        # 96 P2 boundary nodes: N = 32 takes the full band, N = 128 the
        # modes |m| <= 24 only
        mesh = dnm.unit_disk_mesh(8)
        if with_rho:
            r = np.linalg.norm(mesh.vertices, axis=1)
            mesh = mesh.with_conformal_factor(
                1.0 + 0.8 * np.clip(1.0 - r, 0.0, 1.0) ** 2)
        got = dnm.dn_fem(mesh, n_modes=n_modes, rescale_to=rescale_to).matrix
        want = _nodal_schur_dn(mesh, n_modes, rescale_to)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() < 1e-12 * scale
        assert np.abs(got - got.T).max() < 1e-12 * np.abs(got).max()

    def test_p2_numbering_matches_edge_loop(self):
        mesh = dnm.make_one_holed_torus_mesh(8)
        k, b_nodes, b_arc, _ = dnm._p2_stiffness(mesh)
        t, nv = mesh.triangles, mesh.n_vertices
        # reference: number each edge when first met, triangle by triangle
        edge_id = {}
        mid = np.empty_like(t)
        for f in range(len(t)):
            for i in range(3):
                key = tuple(sorted((t[f, (i + 1) % 3], t[f, (i + 2) % 3])))
                mid[f, i] = edge_id.setdefault(key, nv + len(edge_id))
        k = k.tocsr()
        assert k.shape[0] == nv + len(edge_id) == nv + mesh._n_edges
        for f in range(len(t)):
            for i in range(3):
                # a P2 edge unknown couples to both endpoints of its edge
                assert k[mid[f, i], t[f, (i + 1) % 3]] != 0.0
                assert k[mid[f, i], t[f, (i + 2) % 3]] != 0.0
        loop, arc = mesh.boundary_loop, mesh.boundary_arclength
        nxt = np.roll(loop, -1)
        want = [edge_id[tuple(sorted(e))] for e in zip(loop, nxt)]
        assert np.array_equal(b_nodes[0::2], loop)
        assert np.array_equal(b_nodes[1::2], want)
        nxt_arc = np.append(arc[1:], arc[0] + mesh.perimeter)
        assert np.array_equal(b_arc[0::2], arc)
        assert np.array_equal(b_arc[1::2], 0.5 * (arc + nxt_arc))

    def test_disconnected_interior_raises(self):
        # a closed tetrahedron beside the disk has no boundary edge, so the
        # mesh validates (chi = 1 + 2), but its nodes never see the boundary
        disk = dnm.unit_disk_mesh(4)
        nv = disk.n_vertices
        tet = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]) + 5.0
        verts = np.vstack([np.hstack([disk.vertices, np.zeros((nv, 1))]), tet])
        tris = np.vstack([disk.triangles,
                          nv + np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])])
        mesh = dnm.TriMesh(verts, tris, disk.boundary_loop,
                           disk.boundary_arclength)
        assert mesh.euler_characteristic == 3
        # the tetrahedron's 4 vertices and 6 edge midpoints
        with pytest.raises(SingularInterior, match="^10 interior nodes"):
            dnm.dn_fem(mesh, n_modes=16)

    @pytest.mark.parametrize("build", [
        lambda: _fan_polygon_mesh(12),
        lambda: _split_rectangle_mesh(),
        lambda: _square_row_mesh(1),
        lambda: _square_row_mesh(2),
        lambda: _square_row_mesh(5),
    ], ids=["fan_12gon", "split_rectangle", "squares_1", "squares_2",
            "squares_5"])
    def test_ordering_stress_meshes_match_reference(self, build):
        # no interior vertex; an interior cut in two by a chord; right
        # angles opposite boundary edges
        mesh = build()
        got = dnm.dn_fem(mesh, n_modes=16).matrix
        want = _nodal_schur_dn(mesh, 16, None)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
        assert np.abs(got - got.T).max() < 1e-12 * np.abs(got).max()

    @pytest.mark.parametrize("res", [4, 8])
    def test_boundary_outside_trailing_block_raises(self, monkeypatch, res):
        # a minimum-degree ordering of the whole matrix eliminates boundary
        # nodes early, so the trailing block is no Schur complement
        splu = spla.splu

        def reordering(a, **kw):
            return splu(a, **{**kw, "permc_spec": "MMD_AT_PLUS_A"})

        monkeypatch.setattr(dnm.spla, "splu", reordering)
        with pytest.raises(SingularInterior, match="trailing block"):
            dnm.dn_fem(dnm.unit_disk_mesh(res), n_modes=16)

    def test_one_factorization_and_no_solve(self, monkeypatch):
        splu, shapes = spla.splu, []
        spilu, ilu_shapes = spla.spilu, []

        class NoSolve:
            def __init__(self, lu):
                self._lu = lu

            def __getattr__(self, name):
                return getattr(self._lu, name)

            def solve(self, *args, **kwargs):
                raise AssertionError("dn_fem solved with the factor")

        def counting(a, **kw):
            shapes.append(a.shape)
            return NoSolve(splu(a, **kw))

        def ordering(a, **kw):
            ilu_shapes.append(a.shape)
            return spilu(a, **kw)

        monkeypatch.setattr(dnm.spla, "splu", counting)
        monkeypatch.setattr(dnm.spla, "spilu", ordering)
        mesh = dnm.unit_disk_mesh(8)
        dnm.dn_fem(mesh, n_modes=32)
        k, _, _, _ = dnm._p2_stiffness(mesh)
        assert shapes == [k.shape]
        # the ordering comes from the interior vertices' block alone
        n_iv = mesh.n_vertices - mesh.boundary_loop.size
        assert ilu_shapes == [(n_iv, n_iv)]

    @pytest.mark.parametrize("build", [dnm.make_one_holed_torus_mesh,
                                       dnm.unit_disk_mesh], ids=["torus", "disk"])
    def test_fill_near_p2_minimum_degree(self, monkeypatch, build):
        # L+U non-zeros at res 24, vertex-graph order against a minimum-degree
        # order of all of K_II: 869k against 849k on the torus, 669k against
        # 737k on the disk; each edge unknown placed after its later
        # endpoint instead gives 3.5M and 2.6M
        mesh = build(24)
        assert _dn_fem_fill(mesh, monkeypatch) <= 1.1 * _p2_minimum_degree_fill(mesh)

    def test_ordering_ignores_triangle_numbering(self, monkeypatch):
        # the res-32 disk in Delaunay's order, sorted ring by ring, and
        # shuffled: 1.298M, 1.304M and 1.297M L+U non-zeros (a minimum-degree
        # order of all of K_II, which follows the edge numbering: 1.44M,
        # 1.58M and 1.40M)
        mesh = dnm.unit_disk_mesh(32)
        t = mesh.triangles
        c = mesh.vertices[t].mean(axis=1)
        rings = t[np.argsort(np.hypot(c[:, 0], c[:, 1]), kind="stable")]
        shuffled = t[np.random.default_rng(0).permutation(len(t))]
        fills = [_dn_fem_fill(dnm.TriMesh(mesh.vertices, tri, mesh.boundary_loop,
                                          mesh.boundary_arclength), monkeypatch)
                 for tri in (t, rings, shuffled)]
        assert max(fills) <= 1.02 * min(fills)

    def test_p2_symbol_converges_at_third_order(self):
        # max relative symbol error over modes 1-8: 1.71e-4 at res 16,
        # 1.44e-5 at res 32 (11.9x); h^3 alone gives 8x
        n, m = 128, np.arange(1, 9)
        want = np.diag(dnm.dn_disk(n).coeffs).real[m]
        errs = []
        for res in (16, 32):
            op = dnm.dn_fem(dnm.unit_disk_mesh(res), n_modes=n,
                            rescale_to=TWO_PI)
            got = np.diag(op.coeffs).real[m]
            errs.append(np.max(np.abs(got - want) / want))
        assert errs[0] / errs[1] >= 8.0


def _dn_fem_fill(mesh, monkeypatch):
    """Non-zeros of L + U in dn_fem's factorization of the mesh."""
    splu, fill = spla.splu, []

    def counting(a, **kw):
        lu = splu(a, **kw)
        fill.append(lu.L.nnz + lu.U.nnz)
        return lu

    with monkeypatch.context() as m:
        m.setattr(dnm.spla, "splu", counting)
        dnm.dn_fem(mesh, n_modes=32)
    return fill[0]


def _p2_minimum_degree_fill(mesh):
    """Non-zeros of L + U when all of K_II takes SuperLU's minimum-degree
    order, boundary last and shifted by I as in dn_fem."""
    k, bidx, _, _ = dnm._p2_stiffness(mesh)
    iidx = np.setdiff1d(np.arange(k.shape[0]), bidx)
    perm = spla.spilu(k[iidx][:, iidx].tocsc(), drop_tol=np.inf, fill_factor=1,
                      permc_spec="MMD_AT_PLUS_A").perm_c
    elim = np.concatenate([iidx[np.argsort(perm)], bidx])
    shift = np.r_[np.zeros(iidx.size), np.ones(bidx.size)]
    lu = spla.splu(k[elim][:, elim].tocsc() + sp.diags(shift, format="csc"),
                   permc_spec="NATURAL", diag_pivot_thresh=0.0)
    return lu.L.nnz + lu.U.nnz


def _nodal_schur_dn(mesh, n, rescale_to):
    """DN matrix from the dense nodal Schur complement, one boundary column
    per sparse solve, contracted with the capped Fourier modes."""
    k, bidx, arc, _ = dnm._p2_stiffness(mesh)
    k = k.tocsr()
    iidx = np.setdiff1d(np.arange(k.shape[0]), bidx)
    schur = k[bidx][:, bidx].toarray()
    if iidx.size:
        k_ii = k[iidx][:, iidx].tocsc()
        k_ib = k[iidx][:, bidx].toarray()
        x = np.column_stack([spla.spsolve(k_ii, k_ib[:, j])
                             for j in range(bidx.size)])
        schur = schur - k[bidx][:, iidx] @ x
    scale = rescale_to / mesh.perimeter if rescale_to else 1.0
    arc, length = arc * scale, mesh.perimeter * scale
    cap = min(n // 2, arc.size // 4)
    ms = (np.arange(-(n // 2) + 1, n // 2 + 1) if cap >= n // 2
          else np.arange(-cap, cap + 1))
    v = np.exp(2j * np.pi * np.outer(arc, ms) / length)
    b = v.conj().T @ schur @ v / length
    u = np.exp(2j * np.pi * np.outer(np.arange(n) * (length / n), ms) / length)
    return (u @ b @ u.conj().T).real / n


def _mesh_from_faces(verts, tris):
    """TriMesh of consistently oriented planar faces, arclength on the loop."""
    loop = dnm._boundary_loop(tris, len(verts))
    p = verts[loop]
    seg = np.linalg.norm(p - np.roll(p, -1, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    return dnm.TriMesh(verts, tris, loop, arc, perimeter=seg.sum())


def _fan_polygon_mesh(k):
    """Regular k-gon fanned from one corner: no interior vertex."""
    ang = TWO_PI * np.arange(k) / k
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    tris = np.array([[0, i, i + 1] for i in range(1, k - 1)])
    return _mesh_from_faces(verts, tris)


def _square_row_mesh(n_squares):
    """A row of unit squares, each split at its centre into four right
    triangles: every boundary edge faces a right angle, so its cotangent
    weight is 0 (to rounding)."""
    s = n_squares
    x = np.arange(s + 1, dtype=float)
    verts = np.vstack([np.stack([x, np.zeros(s + 1)], axis=1),
                       np.stack([x, np.ones(s + 1)], axis=1),
                       np.stack([x[:-1] + 0.5, np.full(s, 0.5)], axis=1)])
    i = np.arange(s)
    bl, br, tl, tr, c = i, i + 1, s + 1 + i, s + 2 + i, 2 * s + 2 + i
    tris = np.concatenate([np.stack(f, axis=1) for f in
                           ((bl, br, c), (br, tr, c), (tr, tl, c), (tl, bl, c))])
    return _mesh_from_faces(verts, tris)


def _split_rectangle_mesh():
    """[0, 2] x [0, 1] with the chord (1, 0)-(1, 1) as one edge, so the
    interior vertices form two components, one in each unit square."""
    t = np.array([0.25, 0.5, 0.75])
    side = np.vstack([np.stack([t, np.zeros(3)], axis=1),
                      np.stack([t, np.ones(3)], axis=1),
                      np.stack([np.zeros(3), t], axis=1)])
    inner = np.array([[0.3, 0.3], [0.7, 0.35], [0.35, 0.7], [0.65, 0.65],
                      [0.5, 0.52]])
    left = np.vstack([[[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]],
                      side, inner])
    tl = Delaunay(left).simplices
    right = left.copy()
    right[:, 0] = 2.0 - right[:, 0]
    # the right square shares the chord's two end vertices, 0 and 1
    nl = left.shape[0]
    ids = np.r_[0, 1, nl + np.arange(nl - 2)]
    verts = np.vstack([left, right[2:]])
    tris = np.vstack([tl, ids[tl]])
    d1 = verts[tris[:, 1]] - verts[tris[:, 0]]
    d2 = verts[tris[:, 2]] - verts[tris[:, 0]]
    flip = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0
    tris[flip] = tris[flip][:, ::-1]
    return _mesh_from_faces(verts, tris)


class TestTorusMesh:
    def test_euler_characteristic(self):
        for res in (8, 16, 24):
            mesh = dnm.make_one_holed_torus_mesh(res)
            assert mesh.euler_characteristic == -1

    def test_boundary_loop_size(self):
        mesh = dnm.make_one_holed_torus_mesh(16)
        assert len(mesh.boundary_loop) >= 64
        for res in (8, 16, 24):
            mesh = dnm.make_one_holed_torus_mesh(res)
            assert len(mesh.boundary_loop) >= 4 * res

    def test_mesh_quality_at_working_resolutions(self):
        for res in (12, 16, 24):
            assert dnm.make_one_holed_torus_mesh(res).min_angle_deg() >= 15.0

    def test_first_betti_number_of_closed_surface(self):
        # cone off the boundary circle and compute ranks of the simplicial
        # boundary operators: b1 = E - rank d1 - rank d2
        mesh = dnm.make_one_holed_torus_mesh(8)
        verts = mesh.n_vertices
        apex = verts
        tris = list(map(tuple, mesh.triangles))
        loop = mesh.boundary_loop
        for i in range(len(loop)):
            tris.append((int(loop[i]), int(loop[(i + 1) % len(loop)]), apex))
        nv = verts + 1
        edges = {}
        for t in tris:
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                edges.setdefault(tuple(sorted((a, b))), len(edges))
        ne = len(edges)
        d1 = np.zeros((nv, ne))
        for (a, b), idx in edges.items():
            d1[a, idx] = -1.0
            d1[b, idx] = 1.0
        d2 = np.zeros((ne, len(tris)))
        for f, t in enumerate(tris):
            for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                idx = edges[tuple(sorted((a, b)))]
                d2[idx, f] = 1.0 if a < b else -1.0
        r1 = np.linalg.matrix_rank(d1)
        r2 = np.linalg.matrix_rank(d2)
        assert ne - r1 - r2 == 2  # closed surface of genus 1

    def test_boundary_is_the_hole_circle(self):
        mesh = dnm.make_one_holed_torus_mesh(12)
        pts = mesh.vertices[mesh.boundary_loop]
        r = np.linalg.norm(pts - 0.5, axis=1)
        assert np.abs(r - 0.25).max() < 1e-12


class TestOffIO:
    def test_roundtrip(self, tmp_path):
        mesh = dnm.unit_disk_mesh(6)
        path = os.path.join(tmp_path, "disk.off")
        _write_off(path, mesh.vertices, mesh.triangles)
        loaded = dnm.load_off(path)
        assert loaded.n_vertices == mesh.n_vertices
        assert loaded.euler_characteristic == 1
        assert len(loaded.boundary_loop) == len(mesh.boundary_loop)

    def test_nonuniform_boundary_perimeter(self, tmp_path):
        # 3-fold perturbed disk: boundary segments of unequal length
        mesh = dnm.unit_disk_mesh(12)
        p = mesh.vertices
        th = np.arctan2(p[:, 1], p[:, 0])
        p = p * (1.0 + 0.1 * np.hypot(p[:, 0], p[:, 1]) * np.cos(3 * th))[:, None]
        path = os.path.join(tmp_path, "wavy.off")
        _write_off(path, p, mesh.triangles)
        loaded = dnm.load_off(path)
        q = p[loaded.boundary_loop]
        true = np.linalg.norm(q - np.roll(q, -1, axis=0), axis=1).sum()
        assert abs(loaded.perimeter - true) < 1e-12 * true
        rho = np.full(loaded.n_vertices, 1.0)
        assert loaded.with_conformal_factor(rho).perimeter == loaded.perimeter

    @pytest.mark.parametrize("text, fault", [
        ("", "empty"),
        ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2", "truncated"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -1\n", "outside 0..2"),
        ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n", "outside 0..2"),
        ("COFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "not an OFF file"),
        ("OFF\n-3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "negative counts"),
        ("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n", "only triangle faces"),
        # a tetrahedron, every edge traversed once each way: closed
        ("OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
         "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n", "no boundary"),
        ("OFF\n6 2 0\n0 0 0\n1 0 0\n0 1 0\n2 0 0\n3 0 0\n2 1 0\n"
         "3 0 1 2\n3 3 4 5\n", "multiple loops"),
    ], ids=["empty", "truncated_faces", "negative_index", "index_past_end", "not_off",
            "negative_count", "quad_face", "closed", "two_loops"])
    def test_malformed_rejected(self, tmp_path, text, fault):
        path = tmp_path / "bad.off"
        path.write_text(text)
        with pytest.raises(NonManifoldMesh, match=fault):
            dnm.load_off(str(path))

    @pytest.mark.parametrize("where", ["boundary", "interior"])
    def test_flipped_face_rejected(self, tmp_path, where):
        mesh = dnm.unit_disk_mesh(4)
        tris = mesh.triangles.copy()
        on_loop = np.isin(tris, mesh.boundary_loop).sum(axis=1)
        f = np.flatnonzero(on_loop == (2 if where == "boundary" else 0))[0]
        tris[f] = tris[f, ::-1]
        path = os.path.join(tmp_path, "flipped.off")
        _write_off(path, mesh.vertices, tris)
        with pytest.raises(NonManifoldMesh, match="inconsistently oriented"):
            dnm.load_off(path)

    def test_nonmanifold_rejected(self):
        verts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1], [2, 0]])
        # edge (0,1) shared by three triangles
        tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(NonManifoldMesh, match="more than two triangles"):
            dnm.TriMesh(verts, tris, np.array([0]), np.array([0.0]))

    @pytest.mark.parametrize("fault", ["dropped_vertex", "swapped_pair"])
    def test_declared_loop_mismatch_rejected(self, fault):
        mesh = dnm.unit_disk_mesh(4)
        loop = mesh.boundary_loop.copy()
        if fault == "dropped_vertex":
            loop = loop[:-1]
        else:
            loop[[3, 4]] = loop[[4, 3]]
        with pytest.raises(NonManifoldMesh, match="declared single loop"):
            dnm.TriMesh(mesh.vertices, mesh.triangles, loop,
                        mesh.boundary_arclength[:loop.size])


def _write_off(path, vertices, triangles):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(vertices)} {len(triangles)} 0\n")
        for v in vertices:
            fh.write(f"{float(v[0])!r} {float(v[1])!r} 0.0\n")
        for t in triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


REAL_OPERATORS = {
    "torus_res24_n64": lambda: dnm.dn_fem(dnm.make_one_holed_torus_mesh(24), n_modes=64),
    "p2_disk_res23_n64": lambda: dnm.dn_fem(dnm.unit_disk_mesh(23), n_modes=64,
                                           rescale_to=TWO_PI),
    "conformal_0.08_n256": lambda: dnm.dn_conformal(dnm.ConformalDomain((0.08,)), 256),
}


@pytest.mark.parametrize("name", REAL_OPERATORS)
def test_projection_equals_gathered_form(name, monkeypatch):
    """The constructor's flip-and-roll gather of b[-j, -k] moves no bit.

    Each b that a backend hands to the constructor is projected to the
    bits of 0.5 (b + conj(b[np.ix_(r, r)])), r = -arange(N)."""
    raw = []
    constructor = bc.BoundaryOperator

    def recording(b, length):
        raw.append((np.array(b, dtype=complex), length))
        return constructor(b, length)

    monkeypatch.setattr(bc, "BoundaryOperator", recording)
    REAL_OPERATORS[name]()
    assert raw
    for b, length in raw:
        r = -np.arange(b.shape[0])
        want = 0.5 * (b + np.conj(b[np.ix_(r, r)]))
        assert np.array_equal(constructor(b, length).coeffs, want)


@pytest.mark.parametrize("name", REAL_OPERATORS)
def test_operator_is_exactly_real(name):
    """Both backends' b projected to a real operator, b_jk = conj(b_{-j,-k}).

    dn_fem's full band holds the Nyquist mode once, as +N/2, so its b is
    not real (anti-real part 2.8e-3 of max|b| on the torus); dn_conformal's
    is real but for rounding on the Nyquist row.  The projection makes
    both exactly real and keeps them exactly Hermitian, so real samples map
    to real samples: the Nyquist cosine as well, which meets the
    unprojected torus b's anti-real part at 5.7e-3 of its real part."""
    op = REAL_OPERATORS[name]()
    b = op.coeffs
    r = -np.arange(op.n_modes)
    assert np.array_equal(b, b.conj().T)
    assert np.array_equal(b, np.conj(b[np.ix_(r, r)]))
    th = np.arange(op.n_modes) * (TWO_PI / op.n_modes)
    for v in (np.cos(th) + np.sin(3 * th), np.cos(op.n_modes // 2 * th)):
        out = op.apply(bc.from_samples(v, op.length)).values()
        assert np.abs(out.imag).max() <= 1e-13 * np.abs(out.real).max()
