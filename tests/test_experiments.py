"""Sweep configuration, execution, determinism and output layout."""

import csv
import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from eitlab import argument as ap
from eitlab import boundary as bc
from eitlab import cli
from eitlab import dn as dnm
from eitlab import experiments as ex
from eitlab import holomorphic as hm
from eitlab import metrics as mt
from eitlab import nearboundary as nb
from eitlab.errors import ConfigInvalid


def small_config(tmp, **kw):
    base = dict(
        base_surface={"kind": "disk"},
        perturbation_family={"kind": "conformal_polynomial",
                             "parameter_list": [0.06, 0.03]},
        immersion="z,z2",
        n_modes=64,
        epsilon=0.25,
        grid_resolution=16,
        n_anchors=2,
        output_dir=str(tmp / "out"),
    )
    base.update(kw)
    return ex.ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid(self, tmp_path):
        small_config(tmp_path).validate()

    def test_bad_surface(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            small_config(tmp_path, base_surface={"kind": "square"}).validate()

    def test_unknown_family(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            small_config(
                tmp_path,
                perturbation_family={"kind": "nope", "parameter_list": [0.1]},
            ).validate()

    def test_nondecreasing_parameters(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            small_config(
                tmp_path,
                perturbation_family={"kind": "conformal_polynomial",
                                     "parameter_list": [0.01, 0.02]},
            ).validate()

    @pytest.mark.parametrize("ps, match", [
        ([0.08, "x"], "'x', not a finite number"),
        (0.08, "non-empty list, got 0.08"),
        ([], "non-empty list"),
        ([float("nan")], "nan, not a finite number"),
        ([float("inf"), 0.01], "inf, not a finite number"),
        ([True], "True, not a finite number"),
        ([0.08, None], "None, not a finite number"),
        ([0.08, 0.04, 0.04], "strictly decrease"),
    ], ids=["non_numeric", "bare_number", "empty", "nan", "inf", "bool", "null",
            "repeated"])
    def test_malformed_parameter_list(self, tmp_path, ps, match):
        with pytest.raises(ConfigInvalid, match=match):
            small_config(tmp_path, perturbation_family={
                "kind": "conformal_polynomial", "parameter_list": ps}).validate()

    @pytest.mark.parametrize("section, entries, key", [
        ("base_surface", {"kind": "disk", "radius": 1.0}, "radius"),
        ("perturbation_family", {"kind": "conformal_polynomial",
                                 "parameter_list": [0.08], "resolution": 8}, "resolution"),
        ("perturbation_family", {"kind": "fem_metric", "parameter_list": [0.08],
                                 "resolutoin": 8}, "resolutoin"),
    ], ids=["disk_radius", "conformal_resolution", "fem_misspelt_resolution"])
    def test_unknown_section_key(self, tmp_path, section, entries, key):
        # each kind accepts only the keys it reads
        with pytest.raises(ConfigInvalid, match=f"unknown {section} keys: .*{key}"):
            small_config(tmp_path, **{section: entries}).validate()

    @pytest.mark.parametrize("name", ["n_modes", "epsilon", "grid_resolution", "seed",
                                      "n_anchors"])
    def test_bool_number_field(self, tmp_path, name):
        # a JSON true is a Python bool, and bool is an int subclass
        with pytest.raises(ConfigInvalid, match=f"{name} must be of type .*, got True"):
            small_config(tmp_path, **{name: True}).validate()

    def test_integer_parameters_accepted(self, tmp_path):
        small_config(tmp_path, perturbation_family={
            "kind": "conformal_polynomial", "parameter_list": [0.06, 0]}).validate()

    @pytest.mark.parametrize("change, match", [
        ({"perturbation_family": {"kind": "conformal_polynomial",
                                  "parameter_list": [0.06, -0.03]}}, "nonnegative"),
        ({"epsilon": 0.0}, "epsilon > 0"),
        ({"epsilon": -0.25}, "epsilon > 0"),
        ({"grid_resolution": 7}, "grid_resolution >= 8"),
        ({"n_anchors": 0}, "n_anchors must be >= 1, got 0"),
        ({"n_anchors": -2}, "n_anchors must be >= 1, got -2"),
        # a JSON true is no resolution, and a float is not truncated to one
        ({"perturbation_family": {"kind": "fem_metric", "parameter_list": [0.08],
                                  "resolution": True}},
         "resolution must be an integer, got True"),
        ({"perturbation_family": {"kind": "fem_metric", "parameter_list": [0.08],
                                  "resolution": 6.9}},
         "resolution must be an integer, got 6.9"),
    ], ids=["negative_parameter", "epsilon_zero", "epsilon_negative", "grid_7",
            "anchors_0", "anchors_negative", "bool_resolution", "float_resolution"])
    def test_out_of_range_value(self, tmp_path, change, match):
        with pytest.raises(ConfigInvalid, match=match):
            small_config(tmp_path, **change).validate()

    def test_unknown_recipe(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            small_config(tmp_path, immersion="z,z9").validate()

    def test_odd_n_modes(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            small_config(tmp_path, n_modes=65).validate()

    def test_from_json_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        for key in ("bogus", "depth"):
            path.write_text(json.dumps({"immersion": "z", key: 1}))
            with pytest.raises(ConfigInvalid, match=f"unknown config keys: .*{key}"):
                ex.ExperimentConfig.from_json(str(path))

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            ex.ExperimentConfig.from_json(str(tmp_path / "absent.json"))

    def test_from_json_roundtrip(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "cfg.json"
        payload = {k: getattr(cfg, k)
                   for k in ex.ExperimentConfig.__dataclass_fields__}
        path.write_text(json.dumps(payload))
        cfg2 = ex.ExperimentConfig.from_json(str(path))
        assert cfg2 == cfg


class TestImmersionRecipes:
    def test_completion_reproduces_closed_forms(self, tmp_path):
        # a recipe names its coordinate's real part on the circle; completed
        # under the disk's DN map, the recipe columns of the sweep's block
        # are the closed forms w, w^2, w^3 and e^w, and the band's basis
        # traces follow them
        cfg = small_config(tmp_path, immersion="z,z2,z3,expz")
        names, real = ex._real_traces(cfg)
        lam = dnm.dn_disk(cfg.n_modes)
        ref = hm.transport_immersion(real, lam, hm.build_projections(lam, 0))
        w = np.exp(1j * np.arange(cfg.n_modes) * (2 * np.pi / cfg.n_modes))
        for k, (recipe, closed) in enumerate(
                zip(("z", "z2", "z3", "expz"), (w, w ** 2, w ** 3, np.exp(w)))):
            assert names[k] == f"transport of immersion trace {recipe}"
            assert np.abs(ref[k].values() - closed).max() <= 1e-13
        assert names[4:6] == ("lemma-1 transport of basis trace cos(1 theta)",
                              "lemma-1 transport of basis trace sin(1 theta)")
        assert len(names) == len(ref) == 4 + 16


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = small_config(tmp)
    records, summary, clouds = ex.run_sweep(cfg)
    return cfg, records, summary, clouds


class TestRunSweep:
    def test_records_valid(self, sweep):
        _, records, summary, clouds = sweep
        assert len(records) == 2
        assert all(r.valid for r in records)
        assert summary["n_valid"] == 2
        assert len(clouds) == 2

    def test_t_measured_and_alt_comparable(self, sweep):
        _, records, _, _ = sweep
        for r in records:
            assert r.t > 0
            assert 1.0 / 50.0 <= r.t_alt / r.t <= 50.0

    def test_kappa_zero_for_disk_family(self, sweep):
        _, records, summary, _ = sweep
        assert summary["kappa"] == 0
        for r in records:
            assert r.kappa == 0 and r.kappa_prime == 0

    def test_dh_decreases_with_s(self, sweep):
        _, records, _, _ = sweep
        assert records[0].d_h_interior > records[1].d_h_interior > 0
        assert records[0].near_boundary_sup > records[1].near_boundary_sup > 0

    def test_dh_full_vs_interior(self, sweep):
        _, records, summary, _ = sweep
        fill = summary["fill_distance_ref"]
        for r in records:
            assert r.d_h_full >= r.d_h_interior - 2.0 * fill

    def test_immersion_margin_positive(self, sweep):
        _, records, _, _ = sweep
        for r in records:
            assert r.immersion_margin > 1e-3

    def test_reference_charts_built_once(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        built, probes, refs, diags = [], [], [], []
        build_chart, winding_number = nb.build_chart, ap.winding_number
        reference_charts, diagnostic = nb.reference_charts, nb.near_boundary_diagnostic
        cauchy_many = ap._cauchy_many
        stage = [None]  # the near-boundary call under way: "ref" or a record number
        cauchy = []     # (stage, numerator tuple) per _cauchy_many call in one

        def counting_cauchy(eta_k, *args, **kwargs):
            if stage[0] is not None:
                cauchy.append((stage[0], eta_k))
            return cauchy_many(eta_k, *args, **kwargs)

        def counting_chart(eta_j, a, chart_index=0):
            built.append(eta_j)
            return build_chart(eta_j, a, chart_index)

        def counting_winding(eta_j, z):
            probes.append(z)
            return winding_number(eta_j, z)

        def kept_reference(*args):
            stage[0] = "ref"
            refs.append(reference_charts(*args))
            stage[0] = None
            return refs[-1]

        def kept_diagnostic(ref, e_prime):
            stage[0] = len(diags)
            diags.append((ref, e_prime, diagnostic(ref, e_prime)))
            stage[0] = None
            return diags[-1][2]

        monkeypatch.setattr(nb, "build_chart", counting_chart)
        monkeypatch.setattr(ap, "winding_number", counting_winding)
        monkeypatch.setattr(nb, "reference_charts", kept_reference)
        monkeypatch.setattr(nb, "near_boundary_diagnostic", kept_diagnostic)
        monkeypatch.setattr(ap, "_cauchy_many", counting_cauchy)
        records, _, _ = ex.run_sweep(cfg)
        assert len(records) == len(diags) == 2 and all(r.valid for r in records)
        (ref,) = refs
        # every index once per anchor for the sweep, one chart per record
        n_ref = sum(any(eta is r for r in ref.e.traces) for eta in built)
        assert n_ref == len(probes) == len(ref.e) * cfg.n_anchors
        assert len(built) - n_ref == len(records) * cfg.n_anchors
        # the reference tuple is evaluated once per admitted chart index for
        # the sweep, the perturbed tuple once per used index per record
        admitted = {ch.chart_index for charts in ref.charts for ch, *_ in charts}
        ref_calls = [eta is ref.e for st, eta in cauchy if st == "ref"]
        assert ref_calls == [True] * len(admitted)
        for k, (_, e_p, rep) in enumerate(diags):
            used = {a["chart_j"] for a in rep.anchors} - {None}
            assert [eta is e_p for st, eta in cauchy if st == k] == [True] * len(used)
        for (used, e_p, rep), rec in zip(diags, records):
            assert used is ref and rec.near_boundary_sup == rep.global_sup
            fresh = reference_charts(ref.e, cfg.n_anchors)
            assert diagnostic(fresh, e_p).to_json() == rep.to_json()

    @pytest.mark.parametrize("family", [
        {"kind": "conformal_polynomial", "parameter_list": [0.06, 0.0]},
        {"kind": "fem_metric", "parameter_list": [0.08, 0.0], "resolution": 23},
    ], ids=["conformal_polynomial", "fem_metric"])
    def test_unperturbed_record_reads_zero(self, tmp_path, family):
        # the reference tuple is the recipe completed under the s = 0
        # operator, as every transported tuple is, so at s = 0 the two
        # clouds coincide; closed-form references left the P2 disk's
        # discretization error, 2.4e-6, in d_h_interior
        records, _, _ = ex.run_sweep(small_config(tmp_path,
                                                  perturbation_family=family))
        assert [r.failure for r in records] == ["", ""]
        zero = records[-1]
        assert zero.s == 0.0 and zero.t == 0.0
        assert zero.d_h_interior <= 1e-12
        assert zero.d_h_full <= 1e-12
        assert zero.near_boundary_sup <= 1e-12

    def test_kappa_mismatch_invalidates(self, tmp_path, monkeypatch, capsys):
        cfg = small_config(tmp_path,
                           perturbation_family={"kind": "conformal_polynomial",
                                                "parameter_list": [0.05]})
        mesh = dnm.make_one_holed_torus_mesh(24)
        torus = dnm.dn_fem(mesh, n_modes=cfg.n_modes, rescale_to=2 * np.pi)
        # the s = 0 reference stays the disk; every perturbed operator is the torus
        monkeypatch.setattr(ex, "_perturbed_dn",
                            lambda c: lambda s: torus if s else dnm.dn_disk(c.n_modes))
        records, summary, _ = ex.run_sweep(cfg, verbose=True)
        assert not records[0].valid
        assert "kappa" in records[0].failure
        assert summary["n_valid"] == 0
        # the record takes its line in the verbose log like any other
        assert capsys.readouterr().out.startswith("s=0.05: ")


    def test_failures_name_their_stage(self, tmp_path, capsys):
        # at 24 modes s = 0.06 fails the transport of a lemma-1 basis trace,
        # not of the immersion, and s = 0.03 pairs no near-boundary point;
        # the sweep still writes its tables, and exits 3
        cfg = small_config(tmp_path, n_modes=24)
        records, summary, _ = ex.run_sweep(cfg)
        assert not any(r.valid for r in records) and summary["n_valid"] == 0
        assert records[0].failure.startswith(
            "CertificateFailed: lemma-1 transport of basis trace sin(1 theta): "
            "conjugate certificate residual")
        assert records[0].failure.endswith("(trace 4 of 18)")
        assert records[1].failure == ("AllChartsFailed: no anchor paired a "
                                      "near-boundary point")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_NUMERICAL
        assert "2 records (2 failed)" in capsys.readouterr().out
        out = tmp_path / "out"
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["valid"], r["failure"]) for r in rows] == [
            ("false", r.failure) for r in records]
        assert json.loads((out / "summary.json").read_text())["n_valid"] == 0


    def test_one_completion_per_operator(self, tmp_path, monkeypatch):
        # the recipe and the lemma-1 basis are one block: completed once
        # under the s = 0 operator and once per record
        calls = []
        transport = hm.transport_immersion
        monkeypatch.setattr(hm, "transport_immersion",
                            lambda e, *a: calls.append(len(e)) or transport(e, *a))
        records, _, _ = ex.run_sweep(small_config(tmp_path))
        assert all(r.valid for r in records)
        assert calls == [2 + 16] * (1 + len(records))

    def test_failed_immersion_trace_names_its_stage(self, tmp_path, monkeypatch):
        # each perturbed operator is the disk's on the defect band and twice
        # it past the band: every basis trace completes, and expz, whose
        # modes reach past the band, does not
        cfg = small_config(tmp_path, immersion="z,expz")
        disk = dnm.dn_disk(cfg.n_modes)
        scale = 1.0 + (np.abs(bc.mode_numbers(cfg.n_modes)) > 8)
        wrong_tail = bc.BoundaryOperator(disk.coeffs * scale, disk.length)
        monkeypatch.setattr(ex, "_perturbed_dn",
                            lambda c: lambda s: wrong_tail if s else disk)
        records, _, _ = ex.run_sweep(cfg)
        for r in records:
            assert not r.valid and r.kappa_prime == 0
            assert r.failure.startswith("CertificateFailed: transport of immersion "
                                        "trace expz: conjugate certificate residual")
            assert r.failure.endswith("(trace 2 of 18)")

    def test_expz_sweep_valid(self, tmp_path):
        # expz reaches past the defect band, and its sweep is valid end to end
        records, summary, _ = ex.run_sweep(small_config(
            tmp_path, immersion="z,expz", perturbation_family={
                "kind": "conformal_polynomial",
                "parameter_list": [0.08, 0.04, 0.02, 0.01]}))
        assert [r.failure for r in records] == [""] * 4
        assert summary["n_valid"] == 4


class TestOutputs:
    def test_emit_files(self, sweep, tmp_path):
        cfg, records, summary, clouds = sweep
        out = str(tmp_path / "emit")
        ex.emit_outputs(records, summary, clouds, out)
        assert os.path.exists(os.path.join(out, "sweep.csv"))
        assert os.path.exists(os.path.join(out, "timings.csv"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert os.path.exists(os.path.join(out, "plotdata", "dh_vs_t.tsv"))
        assert sorted(os.listdir(os.path.join(out, "clouds"))) == [
            "pert_s0p03.csv", "pert_s0p06.csv", "ref.csv"]
        assert len(os.listdir(os.path.join(out, "plots"))) == 2
        with open(os.path.join(out, "sweep.csv")) as fh:
            header = fh.readline().strip()
        assert header == ",".join(ex.SweepRecord.CSV_FIELDS)
        assert "wall_time" not in header

    def test_sweep_csv_deterministic(self, tmp_path):
        cfg = small_config(
            tmp_path,
            perturbation_family={"kind": "conformal_polynomial",
                                 "parameter_list": [0.05]},
        )
        outs = []
        for name in ("a", "b"):
            records, summary, clouds = ex.run_sweep(cfg)
            out = str(tmp_path / name)
            ex.emit_outputs(records, summary, clouds, out)
            with open(os.path.join(out, "sweep.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_sweep_csv_independent_of_seed(self, tmp_path):
        # the config's seed reaches nothing: the lemma-1 ratio is a max over
        # the band's basis traces, not over random ones
        outs = []
        for seed in (1, 2):
            cfg = small_config(
                tmp_path,
                perturbation_family={"kind": "conformal_polynomial",
                                     "parameter_list": [0.05]},
                seed=seed,
            )
            records, summary, clouds = ex.run_sweep(cfg)
            out = str(tmp_path / f"seed{seed}")
            ex.emit_outputs(records, summary, clouds, out)
            with open(os.path.join(out, "sweep.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_reference_cloud_written_once(self, sweep, tmp_path, capsys):
        _, records, summary, clouds = sweep
        out = tmp_path / "emit"
        ex.emit_outputs(records, summary, clouds, str(out))
        ref = ap.ReconstructedCloud.from_csv(str(out / "clouds" / "ref.csv"))
        assert np.array_equal(ref.points, clouds[0][1].points)
        pert = str(out / "clouds" / "pert_s0p06.csv")
        capsys.readouterr()
        assert cli.main(["hausdorff", str(out / "clouds" / "ref.csv"),
                         pert]) == cli.EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert printed["d_h"] == mt.hausdorff(clouds[0][1].points,
                                              clouds[0][2].points).d_h > 0

    def test_rerun_into_same_directory_is_byte_identical(self, sweep, tmp_path):
        _, records, summary, clouds = sweep

        def tree(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        ex.emit_outputs(records, summary, clouds, str(fresh))
        ex.emit_outputs(records, summary, clouds, str(rerun))
        for path in tree(rerun):  # stale, longer contents to be replaced
            with open(rerun / path, "ab") as fh:
                fh.write(b"stale" * 1000)
        ex.emit_outputs(records, summary, clouds, str(rerun))
        assert tree(rerun) == tree(fresh)

    def test_svg_matches_scalar_formula(self, tmp_path):
        # the first cloud spans [0, 1] on both axes: the pixel scale is
        # 480 / 1.1 with a pad of 0.05, and the other points map to pixel
        # values m + 0.005 (cx) and m' + 0.995 (cy), the edges of ".2f"
        size = 480
        edges = 22.005 + 11.0 * np.arange(40)
        x = edges / (size / 1.1) - 0.05
        pa = np.concatenate([[0.0, 1.0 + 1.0j], x + 1j * x[::-1]])
        pb = x[::2] + 1j * x[1::2]
        path = str(tmp_path / "s.svg")
        ex._svg_scatter(path, SimpleNamespace(points=pa[:, None]),
                        SimpleNamespace(points=pb[:, None]))

        # the per-point formula, on numpy scalars
        allp = np.concatenate([pa, pb])
        x0, y0 = allp.real.min(), allp.imag.min()
        span = max(allp.real.max() - x0, allp.imag.max() - y0, 1e-12)
        pad = 0.05 * span

        def sx(v):
            return (v - x0 + pad) / (span + 2 * pad) * size

        def sy(v):
            return size - (v - y0 + pad) / (span + 2 * pad) * size

        lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
                 f'height="{size}" viewBox="0 0 {size} {size}">',
                 f'<rect width="{size}" height="{size}" fill="white"/>']
        for pts, color in ((pa, "#1f77b4"), (pb, "#d62728")):
            for z in pts:
                lines.append(f'<circle cx="{sx(z.real):.2f}" cy="{sy(z.imag):.2f}" '
                             f'r="1.5" fill="{color}" fill-opacity="0.6"/>')
        lines.append("</svg>")
        with open(path) as fh:
            assert fh.read() == "\n".join(lines)
        # one ulp either way changes the printed value of most coordinates
        v = np.array([sx(z.real) for z in pa[2:]] + [sy(z.imag) for z in pa[2:]])
        moved = [f"{lo:.2f}" != f"{hi:.2f}" for lo, hi in
                 zip(np.nextafter(v, -np.inf).tolist(), np.nextafter(v, np.inf).tolist())]
        assert sum(moved) > 0.5 * len(moved)

    def test_empty_records_header_only(self, tmp_path):
        out = str(tmp_path / "empty")
        ex.emit_outputs([], {"n_records": 0}, [], out)
        with open(os.path.join(out, "sweep.csv")) as fh:
            lines = fh.readlines()
        assert len(lines) == 1


class TestFemFamily:
    def test_fem_perturbation_moves_dn(self, tmp_path):
        cfg = small_config(
            tmp_path,
            n_modes=32,
            perturbation_family={"kind": "fem_metric",
                                 "parameter_list": [0.3],
                                 "resolution": 16},
        )
        lam0 = ex._perturbed_dn(
            small_config(tmp_path,
                         n_modes=32,
                         perturbation_family={"kind": "fem_metric",
                                              "parameter_list": [0.0],
                                              "resolution": 16}))(0.0)
        lam = ex._perturbed_dn(cfg)(0.3)
        diff = np.abs(lam.matrix - lam0.matrix).max()
        assert diff > 1e-4

    def test_fem_sweep_valid_end_to_end(self, tmp_path):
        # the reference is the s = 0 FEM operator on the same mesh, and the
        # transport and lemma-1 traces pass the certificate rule
        cfg = small_config(
            tmp_path,
            perturbation_family={"kind": "fem_metric",
                                 "parameter_list": [0.08, 0.04, 0.02, 0.01],
                                 "resolution": 24},
        )
        records, summary, _ = ex.run_sweep(cfg)
        assert [r.failure for r in records] == [""] * 4
        assert summary["n_valid"] == 4
        assert all(r.lemma1_ratio > 0 for r in records)
        assert 0.8 <= summary["slope_dh_interior_vs_t"] <= 1.2

    def test_coarse_mesh_sweep_valid(self, tmp_path):
        # at resolution 8 the s = 0 operator's defect floor is 4.2e-3, a gap
        # of 236 at kappa = 0, and the certificate tolerance it sets still
        # passes every transported and lemma-1 trace
        cfg = small_config(
            tmp_path,
            perturbation_family={"kind": "fem_metric",
                                 "parameter_list": [0.08, 0.04, 0.02, 0.01],
                                 "resolution": 8},
        )
        records, summary, _ = ex.run_sweep(cfg)
        assert [r.failure for r in records] == [""] * 4
        assert summary["n_valid"] == 4 and summary["kappa"] == 0

    def test_one_mesh_and_one_validation_per_sweep(self, tmp_path, monkeypatch):
        # eitlab sweep validates its config once, and the family builds its
        # disk mesh once for the s = 0 reference and all four records
        builds, validations = [], []
        build, validate = dnm.unit_disk_mesh, ex.ExperimentConfig.validate
        monkeypatch.setattr(dnm, "unit_disk_mesh", lambda res: builds.append(res) or build(res))
        monkeypatch.setattr(ex.ExperimentConfig, "validate",
                            lambda cfg: validations.append(cfg) or validate(cfg))
        cfg = small_config(tmp_path, perturbation_family={
            "kind": "fem_metric", "parameter_list": [0.08, 0.04, 0.02, 0.01],
            "resolution": 8})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: getattr(cfg, k)
                                    for k in ex.ExperimentConfig.__dataclass_fields__}))
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_OK
        assert builds == [8] and len(validations) == 1
        # without a resolution the family builds the default mesh
        builds.clear()
        ex._perturbed_dn(small_config(tmp_path, perturbation_family={
            "kind": "fem_metric", "parameter_list": [0.08]}))
        assert builds == [24]

    def test_resolution_floor_in_run_sweep_and_cli(self, tmp_path, capsys):
        # a config built in code is refused by run_sweep, a file by the CLI,
        # which names it, before anything is written
        cfg = small_config(tmp_path, perturbation_family={
            "kind": "fem_metric", "parameter_list": [0.08], "resolution": 0})
        with pytest.raises(ConfigInvalid, match="disk mesh resolution: resolution must be >= 1"):
            ex.run_sweep(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: getattr(cfg, k)
                                    for k in ex.ExperimentConfig.__dataclass_fields__}))
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG
        assert f"{path}: disk mesh resolution" in capsys.readouterr().err
        assert not os.path.exists(cfg.output_dir)

    def test_resolution_floor(self, tmp_path):
        # a resolution must be an integer that the disk mesh builder accepts
        fam = {"kind": "fem_metric", "parameter_list": [0.08]}
        for res, match in (("24", "must be an integer"), (0, "must be >= 1")):
            with pytest.raises(ConfigInvalid, match=match):
                small_config(tmp_path, perturbation_family={
                    **fam, "resolution": res}).validate()
        small_config(tmp_path, perturbation_family={**fam, "resolution": 1}).validate()
