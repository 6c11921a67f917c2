"""Trace completion, topology detection, projections and transport."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eitlab import boundary as bc
from eitlab import dn as dnm
from eitlab import holomorphic as hm
from eitlab.errors import CertificateFailed, DimensionMismatch, NoSpectralGap

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def disk64():
    return dnm.dn_disk(64)


def _torus(resolution):
    mesh = dnm.make_one_holed_torus_mesh(resolution)
    return dnm.dn_fem(mesh, n_modes=64, rescale_to=TWO_PI)


@pytest.fixture(scope="module")
def torus24():
    return _torus(24)


@pytest.fixture(scope="module")
def torus48():
    return _torus(48)


def grid(n, length=TWO_PI):
    return np.arange(n) * (length / n)


def q_apply(pp, f):
    """Q f with Q = B B^H, B the projection pair's coefficient basis."""
    return bc.BoundaryFunction(pp.basis @ (pp.basis.conj().T @ f.coeffs), f.length)


def relative_certificate(eta, lam):
    return hm.certificate_residual(eta, lam) / bc.sobolev_norm(eta, 1)


def uncertified_completion(f, lam, basis):
    """P f + i J Lambda P f with P = I - B B^H, and no certificate check."""
    u = f.real.coeffs
    pre = bc.BoundaryFunction(u - basis @ (basis.conj().T @ u), f.length).real
    return pre + 1j * hm.j_lambda(lam).apply(pre).real


class TestHilbertTransform:
    def test_JL_maps_cos_to_sin(self, disk64):
        th = grid(64)
        jl = hm.j_lambda(disk64)
        for m in range(1, 9):
            f = bc.from_samples(np.cos(m * th), TWO_PI)
            assert np.abs(jl.apply(f).values().real - np.sin(m * th)).max() < 1e-10

    def test_LJ_maps_sin_to_minus_cos(self, disk64):
        th = grid(64)
        lj = hm.lambda_j(disk64)
        f = bc.from_samples(np.sin(3 * th), TWO_PI)
        assert np.abs(lj.apply(f).values().real + np.cos(3 * th)).max() < 1e-10

    def test_kills_constants(self, disk64):
        f = bc.from_samples(np.full(64, 4.0), TWO_PI)
        assert np.abs(hm.lambda_j(disk64).apply(f).values()).max() < 1e-12


class TestDefectOperator:
    def test_disk_defect_vanishes(self, disk64):
        d = hm.defect_operator(disk64, max_mode=31)
        assert np.linalg.norm(d.matrix, 2) < 1e-10

    def test_constants_pass_through_core(self, disk64):
        # on constants I acts and (Lambda J)^2 kills: the unprojected core
        # returns the constant itself
        lj = hm.lambda_j(disk64)
        core = np.eye(64) + lj.matrix @ lj.matrix
        ones = np.full(64, 2.0)
        assert np.abs(core @ ones - ones).max() < 1e-12

    def test_torus_defect_has_rank_two(self, torus24):
        sv = np.linalg.svd(hm.defect_operator(torus24).matrix,
                           compute_uv=False)
        assert sv[1] > 1.0
        assert sv[2] < 1e-3


class TestEstimateKappa:
    def test_analytic_disk(self, disk64):
        assert hm.estimate_kappa(disk64) == 0

    @pytest.mark.parametrize("res", [8, 16, 22, 24])
    def test_fem_disk(self, res):
        # the P2 disk's defect holds only discretization error (4.2e-3 at
        # res 8 down to 7.98e-5 at res 24), at least 236x below Lambda J's
        # magnitude 1, so the largest gap is at kappa = 0 on coarse meshes too
        mesh = dnm.unit_disk_mesh(res)
        lam = dnm.dn_fem(mesh, n_modes=64, rescale_to=TWO_PI)
        assert hm.estimate_kappa(lam) == 0
        assert hm.spectral_gap(lam, 0) >= 10.0

    def test_torus(self, torus24):
        k = hm.estimate_kappa(torus24)
        assert k == 2
        assert hm.spectral_gap(torus24, k) >= 10.0

    def test_zero_operator_resolves_no_modes(self):
        with pytest.raises(NoSpectralGap, match="resolves no boundary modes"):
            hm.estimate_kappa(bc.BoundaryOperator(np.zeros((64, 64)), TWO_PI))

    def test_singular_values_straddling_the_threshold(self):
        # scaling the disk symbol by 1 + eps on modes +-m gives the defect
        # singular value 2 eps + eps^2 twice: 3.0e-3 on m = 2 and 6.0e-4 on
        # m = 5, on both sides of 1e-3 and only a factor 5 apart.  The rest
        # of the band's defect is exactly 0, so the defect has rank 4: its
        # largest ratio is 6.0e-4 over the N eps clamp
        sym = np.abs(bc.mode_numbers(64)).astype(float)
        for m, eps in ((2, 1.5e-3), (5, 3e-4)):
            sym[[m, -m]] *= 1.0 + eps
        lam = bc.operator_from_symbol(sym, TWO_PI)
        sv = np.linalg.svd(hm.defect_operator(lam).matrix, compute_uv=False)
        assert np.allclose(sv[:4], [3.00225e-3, 3.00225e-3, 6.0009e-4, 6.0009e-4],
                           rtol=1e-8)
        assert hm.estimate_kappa(lam) == 4
        assert hm.spectral_gap(lam, 4) >= 10.0

    def test_geometric_defect_has_no_gap(self):
        # scaling the disk symbol on modes 1..8 so that the defect pairs
        # fall 3x each (0.3, 0.1, ..., 1.4e-4) leaves no ratio >= 10: the
        # largest, 1 / 0.3 = 3.33 at kappa = 0, is refused, as is every
        # other kappa up to the whole band
        sym = np.abs(bc.mode_numbers(64)).astype(float)
        for m in range(1, 9):
            sym[[m, -m]] *= np.sqrt(1.0 + 0.3 / 3.0 ** (m - 1))
        lam = bc.operator_from_symbol(sym, TWO_PI)
        sv = np.linalg.svd(hm.defect_operator(lam).matrix, compute_uv=False)
        assert np.allclose(sv[:16:2], 0.3 / 3.0 ** np.arange(8), rtol=1e-8)
        with pytest.raises(NoSpectralGap, match=r"at kappa = 0 \(ratio 3\.33\)"):
            hm.estimate_kappa(lam)

    def test_gap_without_a_next_singular_value_is_infinite(self):
        # the disk symbol cut to |m| <= 1 resolves one mode each side, so the
        # defect holds two singular values and kappa = 2 leaves none to
        # divide by
        ms = np.abs(bc.mode_numbers(64)).astype(float)
        lam = bc.operator_from_symbol(np.where(ms <= 1, ms, 0.0), TWO_PI)
        assert hm.resolved_band(lam) == 1
        assert hm._defect_spectrum(lam)[1].size == 2
        assert hm.spectral_gap(lam, 2) == np.inf


class TestProjections:
    def test_disk_trivial(self, disk64):
        pp = hm.build_projections(disk64, 0)
        assert pp.basis.shape == (64, 0) and pp.kappa == 0

    def test_torus_projection_algebra(self, torus24):
        pp = hm.build_projections(torus24, 2)
        q = pp.basis @ pp.basis.conj().T
        p = np.eye(64) - q
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(q @ q - q).max() < 1e-10
        assert np.abs(p @ q).max() < 1e-10
        assert abs(np.trace(q) - 2) < 1e-10

    def test_completed_real_part_has_no_q_component(self, torus24):
        pp = hm.build_projections(torus24, 2)
        th = grid(64)
        f = bc.from_samples(np.cos(th) + 0.5 * np.sin(3 * th), TWO_PI)
        eta = hm.complete_trace(f, 0.0, torus24, pp)
        assert bc.sobolev_norm(q_apply(pp, f), 0) > 0.1
        assert bc.sobolev_norm(q_apply(pp, eta.real), 0) < 1e-13

    def test_kappa_splitting_a_singular_pair_raises(self, torus24):
        # the torus defect's two singular values are equal, so one right
        # singular vector alone is no real subspace: its real and imaginary
        # coefficients have rank 2, not 1
        with pytest.raises(NoSpectralGap, match=r"\[0\.708 0\.708\], not rank 1"):
            hm.build_projections(torus24, 1)

    @pytest.mark.parametrize("surface", ["paired_symbol", "fem_disk"])
    def test_kappa_without_a_gap_raises(self, surface):
        # kappa = 2 takes one whole, exactly degenerate pair of defect
        # values, a real subspace that passes the rank check, but the next
        # pair is within the gap factor.  paired_symbol scales the disk
        # symbol by 1 + eps on modes +-2 and +-5 (defect values 3.0e-3 and
        # 6.0e-4); the P2 disk's defect holds only discretization error
        # (7.98e-5, 5.36e-5, ...)
        if surface == "paired_symbol":
            sym = np.abs(bc.mode_numbers(64)).astype(float)
            for m, eps in ((2, 1.5e-3), (5, 3e-4)):
                sym[[m, -m]] *= 1.0 + eps
            lam = bc.operator_from_symbol(sym, TWO_PI)
            match = r"3\.002\d+e-03 / 6\.000\d+e-04 show no gap"
        else:
            lam = dnm.dn_fem(dnm.unit_disk_mesh(24), n_modes=64,
                             rescale_to=TWO_PI)
            match = r"7\.978\d+e-05 / 5\.356\d+e-05 show no gap"
        with pytest.raises(NoSpectralGap, match=match):
            hm.build_projections(lam, 2)


class TestCompleteTrace:
    def test_disk_cos2_gives_z_squared(self, disk64):
        th = grid(64)
        pp = hm.build_projections(disk64, 0)
        eta = hm.complete_trace(bc.from_samples(np.cos(2 * th), TWO_PI),
                                0.0, disk64, pp)
        assert np.abs(eta.values() - np.exp(2j * th)).max() < 1e-10
        assert hm.certificate_residual(eta, disk64) < 1e-10

    def test_imaginary_mean_constant(self, disk64):
        th = grid(64)
        pp = hm.build_projections(disk64, 0)
        eta = hm.complete_trace(bc.from_samples(np.cos(th), TWO_PI),
                                1.5 * TWO_PI, disk64, pp)
        assert abs(bc.mean(eta.imag) - 1.5 * TWO_PI) < 1e-10

    def test_torus_certificate_discrimination(self, torus24):
        # projected real part passes the certificate, the unprojected
        # completion of a function with Qf != 0 fails by a wide margin
        pp = hm.build_projections(torus24, 2)
        rng = np.random.default_rng(3)
        th = grid(64)
        vals = sum(rng.standard_normal() * np.cos(m * th)
                   + rng.standard_normal() * np.sin(m * th)
                   for m in range(1, 5))
        f = bc.from_samples(vals, TWO_PI)
        assert bc.sobolev_norm(q_apply(pp, f), 0) > 0.1
        eta_p = hm.complete_trace(f, 0.0, torus24, pp)
        rel_p = relative_certificate(eta_p, torus24)
        eta_u = uncertified_completion(f, torus24, np.zeros((64, 0)))
        rel_u = relative_certificate(eta_u, torus24)
        assert rel_u > 10.0 * rel_p

    @pytest.mark.parametrize("m", [1, 3])
    def test_torus_sine_completes_and_converges(self, torus24, torus48, m):
        # sin(theta) and sin(3 theta) have a component off the completable
        # traces; removed, the certificate is a discretization error that
        # falls with the mesh (about 9x from res 24 to 48)
        th = grid(64)
        f = bc.from_samples(np.sin(m * th), TWO_PI)
        rel = []
        for lam in (torus24, torus48):
            pp = hm.build_projections(lam, 2)
            rel.append(relative_certificate(
                hm.complete_trace(f, 0.0, lam, pp), lam))
        assert rel[0] > 5.0 * rel[1]

    @settings(deadline=None, derandomize=True, database=None, max_examples=20)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
    def test_torus_projections_and_completion(self, torus24, amps):
        # over all amplitudes of modes 1-8 the relative certificate peaks at
        # 5.6e-4, on mode 8, the mesh's discretization error
        pp = hm.build_projections(torus24, 2)
        q = pp.basis @ pp.basis.conj().T
        p = np.eye(64) - q
        assert np.abs(pp.basis.conj().T @ pp.basis - np.eye(2)).max() < 1e-14
        assert np.abs(p @ p - p).max() < 1e-13
        assert np.array_equal(q, q.conj().T)
        th = grid(64)
        vals = sum(amps[2 * k] * np.cos((k + 1) * th)
                   + amps[2 * k + 1] * np.sin((k + 1) * th) for k in range(8))
        f = bc.from_samples(vals, TWO_PI)
        eta = hm.complete_trace(f, 0.0, torus24, pp)
        scale = max(bc.sobolev_norm(f, 0), 1.0)
        assert bc.sobolev_norm(q_apply(pp, eta.real), 0) < 1e-13 * scale

    def test_certificate_failure_raises(self, torus24):
        # an empty basis, the identity "projection", leaves the defect
        # component in
        floor = hm.build_projections(torus24, 2).defect_floor
        ident = hm.ProjectionPair(np.zeros((64, 0)), floor)
        rng = np.random.default_rng(3)
        th = grid(64)
        vals = sum(rng.standard_normal() * np.cos(m * th) for m in range(1, 5))
        with pytest.raises(CertificateFailed):
            hm.complete_trace(bc.from_samples(vals, TWO_PI), 0.0, torus24, ident)

    @pytest.mark.parametrize("res", [24, 48])
    def test_q_without_its_derivative_factor_is_refused(self, torus24, torus48,
                                                        res):
        # Q spanned by the real and imaginary parts of V itself, not of
        # d_gamma^H V = -i omega V.  V lies mostly on modes +-1, where
        # -i omega only turns cos into sin, so this Q is close to the right
        # one: cos(theta) + 0.02 sin(2 theta) completes with relative
        # residual 8.6e-3 at both resolutions, which a constant 1e-2
        # accepted.  The rule refuses it above 10 sigma_3: 7.2e-3 at res 24,
        # 5.6e-4 at res 48.
        lam = {24: torus24, 48: torus48}[res]
        pp = hm.build_projections(lam, 2)
        band, _, vh = hm._defect_spectrum(lam)
        c = np.zeros((64, 2), dtype=complex)
        c[band] = vh[:2].conj().T
        basis = np.linalg.svd(bc._real_part(np.hstack([c, -1j * c])),
                              full_matrices=False)[0][:, :2]
        th = grid(64)
        f = bc.from_samples(np.cos(th) + 0.02 * np.sin(2 * th), TWO_PI)
        eta = uncertified_completion(f, lam, basis)
        assert 10.0 * pp.defect_floor < relative_certificate(eta, lam) < 1e-2
        with pytest.raises(CertificateFailed):
            hm.complete_trace(f, 0.0, lam, hm.ProjectionPair(basis, pp.defect_floor))
        hm.complete_trace(f, 0.0, lam, pp)

    def test_p2_disk_refuses_an_unresolved_mode(self):
        # the res-23 P2 disk's defect floor, on modes 1..8, is 9.3e-5; cos 20
        # theta, past that band, completes with relative residual 2.1e-3,
        # which a constant 1e-2 accepted and the rule (9.3e-4) refuses
        lam = dnm.dn_fem(dnm.unit_disk_mesh(23), n_modes=64, rescale_to=TWO_PI)
        pp = hm.build_projections(lam, 0)
        th = grid(64)
        f = bc.from_samples(np.cos(20 * th), TWO_PI)
        eta = uncertified_completion(f, lam, pp.basis)
        assert 10.0 * pp.defect_floor < relative_certificate(eta, lam) < 1e-2
        with pytest.raises(CertificateFailed):
            hm.complete_trace(f, 0.0, lam, pp)
        hm.complete_trace(bc.from_samples(np.cos(8 * th), TWO_PI), 0.0, lam, pp)


class TestTransport:
    def test_identity_when_unperturbed(self, disk64):
        th = grid(64)
        pp = hm.build_projections(disk64, 0)
        eta = hm.complete_trace(bc.from_samples(np.cos(2 * th), TWO_PI),
                                0.7, disk64, pp)
        eta2 = hm.transport_immersion(hm.TraceTuple((eta,)), disk64, pp)[0]
        assert np.abs(eta2.values() - eta.values()).max() < 1e-10

    def test_componentwise(self, disk64):
        th = grid(64)
        pp = hm.build_projections(disk64, 0)
        e = hm.TraceTuple((bc.from_samples(np.exp(1j * th), TWO_PI),
                           bc.from_samples(np.exp(2j * th), TWO_PI)))
        lam_p = dnm.dn_conformal(dnm.ConformalDomain((0.03,)), 64)
        pp_p = hm.build_projections(lam_p, 0)
        moved = hm.transport_immersion(e, lam_p, pp_p)
        single = hm.transport_immersion(hm.TraceTuple((e[1],)), lam_p, pp_p)[0]
        assert np.abs(moved[1].values() - single.values()).max() < 1e-13

    def test_block_matches_one_trace_at_a_time(self, torus24):
        # each column of the block is the completion of that trace alone,
        # imaginary mean included
        pp = hm.build_projections(torus24, 2)
        rng = np.random.default_rng(5)
        th = grid(64)
        e = hm.TraceTuple(tuple(
            bc.from_samples(sum(complex(*rng.standard_normal(2)) * np.exp(1j * m * th)
                                + complex(*rng.standard_normal(2)) * np.exp(-1j * m * th)
                                for m in range(1, 6)) + 1j * rng.standard_normal(),
                            TWO_PI)
            for _ in range(6)))
        moved = hm.transport_immersion(e, torus24, pp)
        for eta, eta_p in zip(e.traces, moved.traces):
            single = hm.complete_trace(eta.real, bc.mean(eta.imag).real, torus24, pp)
            assert np.abs(eta_p.coeffs - single.coeffs).max() < 1e-13
        assert abs(bc.mean(moved[0].imag) - bc.mean(e[0].imag)) < 1e-13

    def test_bad_trace_cannot_hide_in_a_block(self, torus24):
        # under the identity "projection" the real parts of completed traces
        # still complete, but a trace with a small Q component fails its own
        # certificate (8.4x over), although the block's summed residual over
        # its summed H1 norm stays below the rule (0.37x)
        pp = hm.build_projections(torus24, 2)
        ident = hm.ProjectionPair(np.zeros((64, 0)), pp.defect_floor)
        th = grid(64)
        good = [hm.complete_trace(bc.from_samples(np.cos(m * th) + 0.3 * np.sin((m + 1) * th),
                                                  TWO_PI), 0.0, torus24, pp).real
                for m in range(1, 6)]
        bad = good[0] + 0.05 * bc.from_samples(np.cos(th) + 0.5 * np.sin(3 * th), TWO_PI)
        block = good[:2] + [bad] + good[2:]
        assert bc.sobolev_norm(q_apply(pp, bad), 0) > 5e-3
        etas = [uncertified_completion(f, torus24, ident.basis) for f in block]
        res = np.array([hm.certificate_residual(eta, torus24) for eta in etas])
        h1 = np.array([bc.sobolev_norm(eta, 1) for eta in etas])
        rule = 10.0 * pp.defect_floor
        assert res[2] / h1[2] > 5.0 * rule and res.sum() / h1.sum() < 0.5 * rule
        with pytest.raises(CertificateFailed, match=r"\(trace 3 of 6\)"):
            hm.transport_immersion(hm.TraceTuple(block), torus24, ident)
        moved = hm.transport_immersion(hm.TraceTuple(good), torus24, ident)
        assert len(moved) == 5

    def test_transport_distance_bounded_by_t(self, disk64):
        th = grid(64)
        pp = hm.build_projections(disk64, 0)
        e = hm.TraceTuple((bc.from_samples(np.exp(1j * th), TWO_PI),
                           bc.from_samples(np.exp(2j * th), TWO_PI)))
        prev = np.inf
        for a2 in (0.06, 0.03, 0.015):
            lam_p = dnm.dn_conformal(dnm.ConformalDomain((a2,)), 64)
            pp_p = hm.build_projections(lam_p, 0)
            moved = hm.transport_immersion(e, lam_p, pp_p)
            t = hm.dn_distance(disk64, lam_p)
            c2 = max(bc.ck_norm(moved[k] - e[k], 2) for k in range(2))
            assert c2 < 10.0 * t
            assert c2 < prev
            prev = c2


class TestDnDistance:
    def test_zero_for_identical(self, disk64):
        assert hm.dn_distance(disk64, disk64) == 0.0

    def test_grid_mismatch(self, disk64):
        with pytest.raises(DimensionMismatch):
            hm.dn_distance(disk64, dnm.dn_disk(32))

    def test_quadratic_in_family_parameter(self, disk64):
        t1 = hm.dn_distance(disk64,
                            dnm.dn_conformal(dnm.ConformalDomain((0.04,)), 64))
        t2 = hm.dn_distance(disk64,
                            dnm.dn_conformal(dnm.ConformalDomain((0.02,)), 64))
        assert 3.0 < t1 / t2 < 5.0


class TestSerialization:
    def test_trace_tuple_json(self, disk64):
        th = grid(64)
        e = hm.TraceTuple((bc.from_samples(np.exp(1j * th), TWO_PI),))
        e2 = hm.TraceTuple.from_json(e.to_json())
        assert np.allclose(e2[0].values(), e[0].values())


class TestTraceTuple:
    def test_one_coefficient_block(self):
        th = grid(64)
        traces = (bc.from_samples(np.exp(1j * th), TWO_PI),
                  bc.from_samples(np.exp(2j * th), TWO_PI),
                  bc.from_samples(np.cos(th) + 0j, TWO_PI))
        e = hm.TraceTuple(traces)
        assert e.coeffs.shape == (64, 3) and e.length == TWO_PI and len(e) == 3
        for k, eta in enumerate(traces):
            assert np.array_equal(e[k].coeffs, eta.coeffs) and e[k].length == TWO_PI
            assert e[k] is e.traces[k]
        # the JSON format is the list of the traces' own records
        assert json.dumps(e.to_json()) == json.dumps(
            {"traces": [eta.to_json() for eta in traces]})

    @pytest.mark.parametrize("n, length", [(32, TWO_PI), (64, 3.0)],
                             ids=["mixed_n", "mixed_l"])
    def test_traces_on_different_grids_raise(self, n, length):
        first = bc.from_samples(np.exp(1j * grid(64)), TWO_PI)
        other = bc.from_samples(np.exp(1j * grid(n)), length)
        with pytest.raises(ValueError, match="traces on one grid"):
            hm.TraceTuple((first, other))
        with pytest.raises(ValueError, match="traces on one grid"):
            hm.TraceTuple.from_json({"traces": [first.to_json(), other.to_json()]})
