"""In-process smoke tests of the command-line driver."""

import json

import numpy as np
import pytest

from eitlab import argument as ap
from eitlab import boundary as bc
from eitlab import cli
from eitlab import dn as dnm
from eitlab.holomorphic import TraceTuple


def reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def json_printed(capsys) -> dict:
    """The last printed line, parsed as strict JSON (no NaN or Infinity)."""
    line = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(line, parse_constant=reject_constant)


def kappa_printed(capsys) -> int:
    return json_printed(capsys)["kappa"]


SWEEP_CONFIG = {
    "base_surface": {"kind": "disk"},
    "perturbation_family": {"kind": "conformal_polynomial",
                            "parameter_list": [0.05]},
    "immersion": "z,z2",
    "n_modes": 64,
    "epsilon": 0.25,
    "grid_resolution": 16,
    "n_anchors": 2,
}

CLOUD_HEADER = "re_1,im_1,tag,chart_j,source_z_re,source_z_im\n"
DISK8 = dnm.dn_disk(8).to_json()


def traces_json() -> str:
    """A one-trace tuple, eta = exp(i theta) on 64 nodes."""
    th = np.arange(64) * (2 * np.pi / 64)
    return json.dumps(TraceTuple((bc.from_samples(np.exp(1j * th), 2 * np.pi),)).to_json())


def mixed_traces_json(n: int, length: float) -> str:
    """exp(i theta) on 64 nodes beside exp(2 i theta) on n nodes, of length `length`."""
    traces = [bc.from_samples(np.exp(1j * k * np.arange(m) * (2 * np.pi / m)), l).to_json()
              for k, m, l in ((1, 64, 2 * np.pi), (2, n, length))]
    return json.dumps({"traces": traces})


def write_config(tmp_path, out_dir):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SWEEP_CONFIG, "output_dir": str(out_dir)}))
    return str(path)


def write_off(path, vertices, triangles):
    lines = ["OFF", f"{len(vertices)} {len(triangles)} 0"]
    lines += [f"{x} {y} 0.0" for x, y in vertices.tolist()]
    lines += [f"3 {a} {b} {c}" for a, b, c in triangles]
    path.write_text("\n".join(lines) + "\n")


class TestSweep:
    def test_runs_and_emits(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "out")
        assert cli.main(["sweep", "--config", cfg]) == cli.EXIT_OK
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert "1 records (0 failed)" in capsys.readouterr().out

    @pytest.mark.parametrize("verbose", [False, True])
    def test_verbose_prints_one_line_per_record(self, tmp_path, capsys, verbose):
        path = tmp_path / "cfg.json"
        family = {"kind": "conformal_polynomial", "parameter_list": [0.05, 0.02]}
        path.write_text(json.dumps({**SWEEP_CONFIG, "perturbation_family": family,
                                    "output_dir": str(tmp_path / "out")}))
        argv = ["sweep", "--config", str(path)] + ["--verbose"] * verbose
        assert cli.main(argv) == cli.EXIT_OK
        *records, last = capsys.readouterr().out.splitlines()
        assert last.startswith("sweep: 2 records (0 failed)")
        assert [line.split(":")[0] for line in records] == ["s=0.05", "s=0.02"] * verbose

    @pytest.mark.parametrize("immersion", ["z2", "z3"])
    def test_no_winding_one_chart_exits_3(self, tmp_path, capsys, immersion):
        # every target has winding 2 or 3 about w^2 or w^3, so the reference
        # cloud has no interior point and no record could be measured
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SWEEP_CONFIG, "immersion": immersion,
                                    "output_dir": str(tmp_path / "out")}))
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert f"EmptyCloud: immersion '{immersion}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"immersion": "z"}))
        assert cli.main(["sweep", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["sweep", "--config",
                         str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG


class TestDn:
    def test_disk(self, tmp_path):
        out = str(tmp_path / "dn.json")
        assert cli.main(["dn", "--surface", "disk", "--n-modes", "32",
                         "--out", out]) == cli.EXIT_OK
        with open(out) as fh:
            d = json.load(fh)
        assert d["n"] == 32
        assert len(d["matrix_row_major"]) == 32 * 32

    def test_conformal(self, tmp_path):
        out = str(tmp_path / "dn.json")
        assert cli.main(["dn", "--surface", "conformal:0.05", "--n-modes",
                         "32", "--out", out]) == cli.EXIT_OK

    def test_fem_disk(self, tmp_path, capsys):
        out = str(tmp_path / "dn.json")
        assert cli.main(["dn", "--surface", "fem-disk", "--resolution", "24",
                         "--n-modes", "64", "--out", out]) == cli.EXIT_OK
        assert cli.main(["kappa", "--dn", out]) == cli.EXIT_OK
        assert kappa_printed(capsys) == 0

    def test_fem_disk_below_floor_exits_2(self, tmp_path, capsys):
        # a disk mesh needs at least one ring: the mesh builder's refusal
        # is a config error, and no file is written
        out = tmp_path / "dn.json"
        assert cli.main(["dn", "--surface", "fem-disk", "--resolution", "0",
                         "--n-modes", "64", "--out", str(out)]) == cli.EXIT_CONFIG
        assert "--resolution: resolution must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_torus(self, tmp_path):
        out = str(tmp_path / "dn.json")
        assert cli.main(["dn", "--surface", "torus", "--resolution", "24",
                         "--n-modes", "64", "--out", out]) == cli.EXIT_OK
        with open(out) as fh:
            assert json.load(fh)["n"] == 64

    def test_off_file(self, tmp_path):
        mesh = dnm.unit_disk_mesh(8)
        path = tmp_path / "disk.off"
        write_off(path, mesh.vertices, mesh.triangles)
        out = str(tmp_path / "dn.json")
        assert cli.main(["dn", "--surface", str(path), "--n-modes", "32",
                         "--out", out]) == cli.EXIT_OK
        with open(out) as fh:
            assert json.load(fh)["n"] == 32

    def test_malformed_off_exits_3(self, tmp_path, capsys):
        # one case: tests/test_dn.py covers each malformed-file fault
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2")
        assert cli.main(["dn", "--surface", str(path), "--out",
                         str(tmp_path / "x.json")]) == cli.EXIT_NUMERICAL
        assert "NonManifoldMesh" in capsys.readouterr().err

    def test_flipped_boundary_face_exits_3(self, tmp_path, capsys):
        mesh = dnm.unit_disk_mesh(4)
        tris = mesh.triangles.copy()
        f = np.flatnonzero(np.isin(tris, mesh.boundary_loop).sum(axis=1) == 2)[0]
        tris[f] = tris[f, ::-1]
        path = tmp_path / "flipped.off"
        write_off(path, mesh.vertices, tris)
        assert cli.main(["dn", "--surface", str(path), "--out",
                         str(tmp_path / "x.json")]) == cli.EXIT_NUMERICAL
        assert "inconsistently oriented" in capsys.readouterr().err

    def test_unknown_surface_exits_2(self, tmp_path):
        assert cli.main(["dn", "--surface", "pretzel", "--out",
                         str(tmp_path / "x.json")]) == cli.EXIT_CONFIG

    def test_univalence_violation_exits_3(self, tmp_path):
        assert cli.main(["dn", "--surface", "conformal:0.9", "--out",
                         str(tmp_path / "x.json")]) == cli.EXIT_NUMERICAL


class TestReconstructAndHausdorff:
    def test_pipeline(self, tmp_path):
        tr = tmp_path / "traces.json"
        tr.write_text(traces_json())
        ca = str(tmp_path / "a.csv")
        assert cli.main(["reconstruct", "--traces", str(tr), "--epsilon",
                         "0.25", "--grid-resolution", "16",
                         "--out", ca]) == cli.EXIT_OK
        hj = str(tmp_path / "h.json")
        assert cli.main(["hausdorff", ca, ca, "--out", hj]) == cli.EXIT_OK
        with open(hj) as fh:
            d = json.load(fh)
        assert d["d_h"] == 0.0

    def test_out_file_is_the_printed_json(self, tmp_path, capsys):
        # A = {0, 1} and B = {3} on the real line: r_AB = 2, r_BA = 3
        ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
        ca.write_text(CLOUD_HEADER + "0,0,interior,0,0,0\n1,0,interior,0,0,0\n")
        cb.write_text(CLOUD_HEADER + "3,0,interior,0,0,0\n")
        hj = tmp_path / "h.json"
        assert cli.main(["hausdorff", str(ca), str(cb), "--out", str(hj)]) == cli.EXIT_OK
        assert hj.read_text() == capsys.readouterr().out.strip()
        d = json.loads(hj.read_text())
        assert (d["d_h"], d["r_ab"], d["r_ba"]) == (3.0, 2.0, 3.0)
        assert (d["fill_distance_a"], d["fill_distance_b"]) == (1.0, 0.0)

    def test_coordinate_count_mismatch_exits_2(self, tmp_path, capsys):
        # a cloud in C beside a cloud in C^2: a config error naming both
        # files and their coordinate counts, and no --out file
        ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
        ca.write_text(CLOUD_HEADER + "0,0,interior,0,0,0\n")
        cb.write_text("re_1,im_1,re_2,im_2,tag,chart_j,source_z_re,source_z_im\n"
                      "0,0,0,0,interior,0,0,0\n")
        hj = tmp_path / "h.json"
        assert cli.main(["hausdorff", str(ca), str(cb), "--out", str(hj)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{ca} and {cb} have 1 and 2 coordinates" in err
        assert not hj.exists()

    def test_grid_resolution_floor_is_accepted(self, tmp_path):
        # 8, the sweep config's floor, is the smallest --grid-resolution,
        # and its lattice still reaches the interior
        tr = tmp_path / "traces.json"
        tr.write_text(traces_json())
        out = tmp_path / "c.csv"
        assert cli.main(["reconstruct", "--traces", str(tr), "--grid-resolution",
                         "8", "--out", str(out)]) == cli.EXIT_OK
        assert np.any(ap.ReconstructedCloud.from_csv(str(out)).chart_j >= 0)

    def test_missing_traces_exits_2(self, tmp_path):
        assert cli.main(["reconstruct", "--traces",
                         str(tmp_path / "nope.json"), "--out",
                         str(tmp_path / "c.csv")]) == cli.EXIT_CONFIG


class TestKappa:
    def test_disk_kappa_zero(self, tmp_path, capsys):
        out = str(tmp_path / "dn.json")
        cli.main(["dn", "--surface", "disk", "--n-modes", "32", "--out", out])
        assert cli.main(["kappa", "--dn", out]) == cli.EXIT_OK
        assert kappa_printed(capsys) == 0

    @pytest.mark.parametrize("res", ["8", "12", "20", "24"])
    def test_torus_kappa_two(self, tmp_path, capsys, res):
        # on coarse meshes the defect's floor reaches 7e-2 (res 8), but the
        # largest gap still follows the torus's two values: 18 at res 8
        out = str(tmp_path / "dn.json")
        cli.main(["dn", "--surface", "torus", "--resolution", res,
                  "--n-modes", "64", "--out", out])
        assert cli.main(["kappa", "--dn", out]) == cli.EXIT_OK
        printed = json_printed(capsys)
        assert printed["kappa"] == 2 and printed["spectral_gap"] >= 10.0

    def test_infinite_gap_prints_null(self, tmp_path, capsys):
        # the 8-mode disk defect is exactly 0, so the spectral gap is infinite
        out = str(tmp_path / "dn.json")
        cli.main(["dn", "--surface", "disk", "--n-modes", "8", "--out", out])
        assert cli.main(["kappa", "--dn", out]) == cli.EXIT_OK
        assert json_printed(capsys) == {"kappa": 0, "spectral_gap": None}


def conformal_family(parameters) -> dict:
    return {"kind": "conformal_polynomial", "parameter_list": parameters}


# sweep configs malformed in one entry: the entries replaced, by name
MALFORMED_SWEEPS = {
    "parameter_non_numeric": {"perturbation_family": conformal_family([0.08, "x"])},
    "parameter_bare_number": {"perturbation_family": conformal_family(0.08)},
    "parameter_nan": {"perturbation_family": conformal_family([float("nan")])},
    "parameter_bool": {"perturbation_family": conformal_family([True])},
    "parameter_repeated": {"perturbation_family": conformal_family([0.08, 0.04, 0.04])},
    "family_unknown_key": {"perturbation_family": {
        "kind": "fem_metric", "parameter_list": [0.08], "resolutoin": 8}},
    "surface_unknown_key": {"base_surface": {"kind": "disk", "radius": 2.0}},
    # a JSON true is no number, though bool is an int subclass
    "n_anchors_bool": {"n_anchors": True},
    "epsilon_bool": {"epsilon": True},
}

HAUSDORFF = ["hausdorff", "IN", "IN", "--out", "OUT"]
RECONSTRUCT = ["reconstruct", "--traces", "IN", "--out", "OUT"]


@pytest.mark.parametrize("argv, content, named", [
    (HAUSDORFF, CLOUD_HEADER + "abc,0.2,interior,0,0.1,0.2\n", "IN"),
    (HAUSDORFF, CLOUD_HEADER + "0.1,0.2,interior\n", "IN"),
    (HAUSDORFF, "", "IN"),
    (HAUSDORFF, CLOUD_HEADER + "0.1,0.2,boundary,0,0.1,0.2\n", "IN"),
    (["kappa", "--dn", "IN"], json.dumps({"n": 8, "length": 6.28}), "IN"),
    (RECONSTRUCT, json.dumps({"trace": []}), "IN"),
    (RECONSTRUCT, json.dumps({"traces": []}), "IN"),
    # a trace tuple's traces share one grid
    (RECONSTRUCT, mixed_traces_json(32, 2 * np.pi), "IN"),
    (RECONSTRUCT, mixed_traces_json(64, 3.0), "IN"),
    (["sweep", "--config", "IN", "--out", "OUT"],
     json.dumps({**SWEEP_CONFIG, "n_modes": "abc"}), "IN"),
    *((["sweep", "--config", "IN", "--out", "OUT"], json.dumps({**SWEEP_CONFIG, **change}),
       "IN") for change in MALFORMED_SWEEPS.values()),
    # a trace whose coefficients are nested lists
    (RECONSTRUCT, json.dumps({"traces": [{
        "n_modes": 8, "length": 2 * np.pi,
        "coeffs_re": [[0, 0], [1, 0], [0, 0], [0, 0]],
        "coeffs_im": [[0, 0]] * 4}]}), "IN"),
    (["dn", "--surface", "conformal:abc", "--out", "OUT"], None, "'conformal:abc'"),
    (["kappa", "--dn", "IN"],
     json.dumps({"n": 7, "length": 6.28, "matrix_row_major": [0.0] * 49}), "IN"),
    (["kappa", "--dn", "IN"],
     json.dumps({**DISK8, "matrix_row_major": [np.nan] + DISK8["matrix_row_major"][1:]}),
     "IN"),
    (["kappa", "--dn", "IN"], json.dumps({**DISK8, "length": -1.0}), "IN"),
    # out-of-range arguments, beside a well-formed traces file
    (RECONSTRUCT + ["--epsilon", "-1"], traces_json(), "--epsilon"),
    (RECONSTRUCT + ["--epsilon", "0"], traces_json(), "--epsilon"),
    (["dn", "--surface", "torus", "--resolution", "3", "--out", "OUT"], None,
     "--resolution"),
    (["dn", "--surface", "conformal:nan", "--out", "OUT"], None, "'conformal:nan'"),
    (["dn", "--surface", "disk", "--n-modes", "0", "--out", "OUT"], None, "--n-modes"),
    (["dn", "--surface", "disk", "--n-modes", "7", "--out", "OUT"], None, "--n-modes"),
    (RECONSTRUCT + ["--grid-resolution", "-3"], traces_json(), "--grid-resolution"),
    (RECONSTRUCT + ["--grid-resolution", "0"], traces_json(), "--grid-resolution"),
    (RECONSTRUCT + ["--grid-resolution", "1"], traces_json(), "--grid-resolution"),
    (RECONSTRUCT + ["--grid-resolution", "7"], traces_json(), "--grid-resolution"),
], ids=["cloud_non_numeric", "cloud_short_row", "cloud_empty_file",
        "cloud_tag_off_chart", "dn_no_matrix", "no_traces", "empty_traces",
        "traces_mixed_n", "traces_mixed_l",
        "sweep_n_modes_str", *(f"sweep_{name}" for name in MALFORMED_SWEEPS),
        "traces_2d_coeffs",
        "conformal_non_numeric", "dn_odd_n", "dn_nan", "dn_negative_length",
        "epsilon_negative", "epsilon_zero",
        "torus_resolution_3", "conformal_nan", "n_modes_0", "n_modes_7",
        "grid_resolution_-3", "grid_resolution_0", "grid_resolution_1",
        "grid_resolution_7"])
def test_malformed_input_exits_2(tmp_path, capsys, argv, content, named):
    # the message names the malformed file (IN), the surface string or the
    # out-of-range argument
    src, out = tmp_path / "input", tmp_path / "out"
    if content is not None:
        src.write_text(content)
    argv = [str(src) if a == "IN" else str(out) if a == "OUT" else a for a in argv]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert (str(src) if named == "IN" else named) in err
    assert not out.exists()
