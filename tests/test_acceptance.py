"""Acceptance gate: one test per documented numerical claim.

Each test prints a single PASS/FAIL line with the measured quantity and its
tolerance, then asserts.  Criteria 6-9 and 11 share one perturbation sweep.
"""

import time

import numpy as np
import pytest

from eitlab import argument as ap
from eitlab import boundary as bc
from eitlab import dn as dnm
from eitlab import experiments as ex
from eitlab import holomorphic as hm
from eitlab import metrics as mt
from eitlab import nearboundary as nb
from eitlab.holomorphic import TraceTuple

TWO_PI = 2.0 * np.pi


def report(num: int, name: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def trace(fn, n=256):
    th = np.arange(n) * (TWO_PI / n)
    return bc.from_samples(fn(np.exp(1j * th)), TWO_PI)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance_sweep")
    cfg = ex.ExperimentConfig(
        base_surface={"kind": "disk"},
        perturbation_family={"kind": "conformal_polynomial",
                             "parameter_list": [0.08, 0.04, 0.02, 0.01]},
        immersion="z,z2",
        n_modes=128,
        epsilon=0.2,
        grid_resolution=32,
        n_anchors=4,
        output_dir=str(tmp),
    )
    t0 = time.perf_counter()
    records, summary, clouds = ex.run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, records, summary, clouds, elapsed


def test_criterion_01_disk_dn_exactness():
    n = 256
    t0 = time.perf_counter()
    lam = dnm.dn_disk(n)
    th = np.arange(n) * (TWO_PI / n)
    worst = 0.0
    for m in (1, 2, 8, 64, 127, 128):
        f = bc.from_samples(np.exp(1j * m * th), TWO_PI)
        err = np.abs(lam.apply(f).values() - m * np.exp(1j * m * th)).max()
        worst = max(worst, err / m)  # relative to the output magnitude |m|
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, "disk DN exactness", ok,
           f"max relative error {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_02_hilbert_transform_identity():
    n = 256
    lam = dnm.dn_disk(n)
    jl = hm.j_lambda(lam)
    th = np.arange(n) * (TWO_PI / n)
    worst = 0.0
    for m in range(1, 9):
        f = bc.from_samples(np.cos(m * th), TWO_PI)
        worst = max(worst, np.abs(jl.apply(f).values().real
                                  - np.sin(m * th)).max())
    ok = worst < 1e-10
    report(2, "Hilbert transform on the disk", ok,
           f"max |JL cos(n.) - sin(n.)| = {worst:.2e} (tol 1e-10), n = 1..8")


def test_criterion_03_topology_detection():
    t0 = time.perf_counter()
    k_disk = hm.estimate_kappa(dnm.dn_disk(64))
    mesh_d = dnm.unit_disk_mesh(24)
    k_fem = hm.estimate_kappa(
        dnm.dn_fem(mesh_d, n_modes=64, rescale_to=TWO_PI))
    mesh_t = dnm.make_one_holed_torus_mesh(24)
    lam_t = dnm.dn_fem(mesh_t, n_modes=64, rescale_to=TWO_PI)
    k_tor = hm.estimate_kappa(lam_t)
    gap = hm.spectral_gap(lam_t, k_tor) if k_tor > 0 else 0.0
    elapsed = time.perf_counter() - t0
    ok = (k_disk == 0 and k_fem == 0 and k_tor == 2 and gap >= 10.0
          and elapsed < 60.0)
    report(3, "topology rank from boundary data", ok,
           f"kappa = {k_disk}/{k_fem}/{k_tor} (want 0/0/2), "
           f"gap {gap:.1f} (>= 10), {elapsed:.1f}s (< 60s)")


def test_criterion_04_conformal_invariance():
    # n_modes kept inside the FEM-resolved band so the reference error
    # measures discretization, not band truncation
    n = 32
    mesh = dnm.unit_disk_mesh(16)
    lam = dnm.dn_disk(n)
    base = dnm.dn_fem(mesh, n_modes=n, rescale_to=TWO_PI)
    r = np.linalg.norm(mesh.vertices, axis=1)
    rho = 1.0 + 0.8 * np.clip(1.0 - r, 0.0, 1.0) ** 2
    pert = dnm.dn_fem(mesh.with_conformal_factor(rho), n_modes=n,
                      rescale_to=TWO_PI)
    disc = bc.operator_norm(base - lam, 1, 0)
    moved = bc.operator_norm(pert - base, 1, 0)
    ok = moved < 2.0 * disc
    report(4, "interior conformal factor invisibility", ok,
           f"moved {moved:.2e} < 2 x discretization error {disc:.2e}")


def test_criterion_05_argument_principle_suite():
    t0 = time.perf_counter()
    e = TraceTuple((trace(lambda z: z), trace(lambda z: z ** 2),
                    trace(np.exp)))
    eps = 0.2
    worst = 0.0
    n_pts = 0
    for j in range(3):
        wf = ap.classify(e[j], 24, eps)
        zs = wf.points_with_winding(1)
        if zs.size == 0:
            continue
        vals = ap._cauchy_many(e[j], e[j], zs)
        worst = max(worst, np.abs(vals - zs).max())
        n_pts += zs.size
    # multiplicity-sum cancellation on the winding-2 chart: the first
    # coordinate summed over both sheets of z^2 vanishes
    wf2 = ap.classify(e[1], 24, eps)
    zs2 = wf2.points_with_winding(2)
    gap_worst = np.abs(ap._cauchy_many(e[0], e[1], zs2)).max()
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and gap_worst < 1e-8 and n_pts > 0 and elapsed < 30.0
    report(5, "argument-principle oracles", ok,
           f"|J_jj(z) - z| max {worst:.2e} over {n_pts} targets, "
           f"sheet-sum residual {gap_worst:.2e} (tol 1e-8), "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_06_transport_ratio_bounded(sweep):
    _, records, summary, _, _ = sweep
    ratios = [r.lemma1_ratio for r in records if r.valid]
    spread = max(ratios) / min(ratios)
    ok = all(r.valid for r in records) and spread < 2.0
    report(6, "transport defect ratio stays bounded", ok,
           f"ratio range [{min(ratios):.3e}, {max(ratios):.3e}], "
           f"spread {spread:.2f}x (< 2x)")


def test_criterion_07_interior_cloud_slope(sweep):
    _, records, summary, _, elapsed = sweep
    slope = summary["slope_dh_interior_vs_t"]
    ok = 0.85 <= slope <= 1.3 and elapsed < 600.0
    report(7, "interior Hausdorff distance is O(t)", ok,
           f"log-log slope {slope:.3f} in [0.85, 1.3], "
           f"sweep {elapsed:.0f}s (< 600s)")


def test_criterion_08_full_cloud_end_to_end(sweep):
    _, records, summary, clouds, _ = sweep
    ds = [r.d_h_full for r in records if r.valid]
    mono = all(ds[i + 1] <= 1.1 * ds[i] for i in range(len(ds) - 1))
    fill_full = mt.fill_distance(clouds[0][1].points)
    small = ds[-1] < 3.0 * fill_full
    ok = mono and small
    report(8, "full-cloud distance shrinks end to end", ok,
           f"d_h_full {['%.3e' % d for d in ds]} monotone within 10%: {mono}, "
           f"smallest {ds[-1]:.3e} < 3 x fill {fill_full:.3e}: {small}")


def test_criterion_09_near_boundary_pairing(sweep):
    cfg, records, _, _, _ = sweep
    sups = [r.near_boundary_sup for r in records if r.valid]
    mono = all(sups[i + 1] <= 1.1 * sups[i] for i in range(len(sups) - 1))
    # unperturbed limit, on the closed forms of the sweep's recipe z,z2
    e = TraceTuple((trace(lambda z: z, cfg.n_modes),
                    trace(lambda z: z ** 2, cfg.n_modes)))
    rep0 = nb.near_boundary_diagnostic(
        nb.reference_charts(e, cfg.n_anchors), e)
    # compensated rule against the closed form z^2 and the plain quadrature
    # on the overlap strip
    pair = hm.TraceTuple((trace(lambda z: z), trace(lambda z: z ** 2)))
    zs = (1.0 - np.array([2e-3, 8e-3])) * np.exp(0.4j)
    got = ap._image_points(pair, 0, zs)[0][:, 1]
    plain = np.array([ap.cauchy_integral(pair[1], pair[0], z) for z in zs])
    overlap_worst = max(np.abs(got - zs ** 2).max(), np.abs(got - plain).max())
    ok = mono and rep0.global_sup < 1e-7 and overlap_worst < 1e-8
    report(9, "near-boundary pairing", ok,
           f"sup {['%.3e' % s for s in sups]} monotone: {mono}, "
           f"t=0 sup {rep0.global_sup:.2e} (< 1e-7), "
           f"overlap error vs z^2 and plain rule {overlap_worst:.2e} (tol 1e-8)")


def test_criterion_10_hausdorff_engine():
    rng = np.random.default_rng(0)
    exact = True
    for _ in range(50):
        na, nb_ = rng.integers(2, 40, size=2)
        dim = int(rng.integers(1, 4))
        a = rng.standard_normal((na, dim))
        b = rng.standard_normal((nb_, dim))
        fast = mt.hausdorff(a, b)
        slow = mt.hausdorff(a, b, brute_force=True)
        exact &= (fast.d_h == slow.d_h and fast.r_ab == slow.r_ab
                  and fast.r_ba == slow.r_ba)
    a = rng.standard_normal((20, 2))
    b = rng.standard_normal((15, 2))
    c = rng.standard_normal((10, 2))
    axioms = (mt.hausdorff(a, a).d_h == 0.0
              and mt.hausdorff(a, b).d_h == mt.hausdorff(b, a).d_h
              and mt.hausdorff(a, c).d_h
              <= mt.hausdorff(a, b).d_h + mt.hausdorff(b, c).d_h + 1e-12)
    ok = exact and axioms
    report(10, "Hausdorff engine", ok,
           f"50 pairs exact vs brute force: {exact}, metric axioms: {axioms}")


def test_criterion_11_immersion_preserved(sweep):
    _, records, _, _, _ = sweep
    margins = [r.immersion_margin for r in records if r.valid]
    ok = (len(margins) == len(records)
          and all(np.isfinite(m) and m > 1e-2 for m in margins))
    report(11, "transported tuple stays an immersion", ok,
           f"min-singular-value margins {['%.3f' % m for m in margins]} "
           f"all > 1e-2")
