"""Sweep harness: perturbation families, stability measurements, outputs.

A sweep's real traces, the immersion recipe's and then the defect band's
basis traces cos m theta and sin m theta (m = 1..8), are one block on one
grid, completed once under the family's s = 0 operator and once under each
perturbed operator.  A sweep walks the parameter toward zero, reconstructs
both image clouds of the immersion on a common target grid and reports the
Hausdorff distances, the lemma-1 ratio (the max over the basis traces of the
transported trace's C^2 change over t times its H^3 norm), the near-boundary
pairing discrepancy and the immersion margins, with log-log slopes against
the operator perturbation size t.  Nothing in a sweep is random, so its
outputs do not depend on the config's seed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import argument as ap
from . import boundary as bc
from . import dn as dnm
from . import holomorphic as hm
from . import metrics as mt
from . import nearboundary as nb
from .errors import CertificateFailed, ConfigInvalid, EitlabError, EmptyCloud
from .holomorphic import TraceTuple

__all__ = [
    "ExperimentConfig",
    "SweepRecord",
    "run_sweep",
    "emit_outputs",
]

_MIN_GRID_RESOLUTION = 8  # fewest lattice points per side in classify

# the values each ExperimentConfig annotation (a string here) accepts
_FIELD_TYPES = {"dict": dict, "str": str, "int": int, "float": (int, float)}

# the keys each perturbation family reads
_FAMILY_KEYS = {
    "conformal_polynomial": ("kind", "parameter_list"),
    "fem_metric": ("kind", "parameter_list", "resolution"),
}

# each recipe's real part on the unit circle, as a function of theta; every
# recipe's imaginary part has mean 0, so its real part names the trace
_RECIPES = {
    "z": np.cos,
    "z2": lambda th: np.cos(2.0 * th),
    "z3": lambda th: np.cos(3.0 * th),
    "expz": lambda th: np.exp(np.cos(th)) * np.cos(np.sin(th)),
}


@dataclass
class ExperimentConfig:
    """Declarative description of one perturbation sweep.

    seed is accepted and ignored: nothing in a sweep is random.  It stays a
    field so that config files that still carry it load.
    """

    base_surface: dict
    perturbation_family: dict
    immersion: str
    n_modes: int = 256
    epsilon: float = 0.2
    grid_resolution: int = 48
    seed: int = 7
    output_dir: str = "sweep_out"
    n_anchors: int = 8

    def validate(self):
        """Raise ConfigInvalid unless the config describes a sweep; return
        the family's DN operator as a function of s (_perturbed_dn)."""
        for f in self.__dataclass_fields__.values():
            value = getattr(self, f.name)
            # bool is an int subclass: a JSON true is no number
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigInvalid(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.base_surface.get("kind") != "disk":
            raise ConfigInvalid("base_surface.kind must be 'disk'")
        _require_keys("base_surface", self.base_surface, ("kind",))
        fam = self.perturbation_family
        if fam.get("kind") not in _FAMILY_KEYS:
            raise ConfigInvalid("unknown perturbation_family.kind")
        _require_keys("perturbation_family", fam, _FAMILY_KEYS[fam["kind"]])
        ps = fam.get("parameter_list", [])
        if not isinstance(ps, list) or not ps:
            raise ConfigInvalid(f"parameter_list must be a non-empty list, got {ps!r}")
        for p in ps:
            # bool is an int subclass, and JSON reads NaN and Infinity
            if (isinstance(p, bool) or not isinstance(p, (int, float))
                    or isinstance(p, float) and not np.isfinite(p)):
                raise ConfigInvalid(f"parameter_list holds {p!r}, not a finite number")
        if any(p < 0 for p in ps):
            raise ConfigInvalid("parameters must be nonnegative")
        if any(later >= p for p, later in zip(ps, ps[1:])):
            raise ConfigInvalid(f"parameter_list must strictly decrease toward 0, got {ps}")
        dn_at = _perturbed_dn(self)
        for name in self.immersion.split(","):
            if name.strip() not in _RECIPES:
                raise ConfigInvalid(f"unknown immersion recipe {name!r}")
        # z,z2 at the other defaults, s = 0.08 .. 0.01: the conformal family fails every
        # record at 16-24, only s = 0.08 (lemma-1) at 26-38, none from 40; fem_metric at
        # resolution 24 fails every record (AllChartsFailed) at 16-24, none from 26
        if self.n_modes < 16 or self.n_modes % 2:
            raise ConfigInvalid("n_modes must be even and >= 16")
        if self.epsilon <= 0 or self.grid_resolution < _MIN_GRID_RESOLUTION:
            raise ConfigInvalid(
                f"epsilon > 0 and grid_resolution >= {_MIN_GRID_RESOLUTION} required")
        if self.n_anchors < 1:
            raise ConfigInvalid(f"n_anchors must be >= 1, got {self.n_anchors}")
        return dn_at

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        """The config in a JSON file; run_sweep validates it."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        try:
            extra = set(raw) - set(ExperimentConfig.__dataclass_fields__)
            if extra:
                raise ConfigInvalid(f"unknown config keys: {sorted(extra)}")
            return ExperimentConfig(**raw)
        except (TypeError, ConfigInvalid) as exc:
            raise ConfigInvalid(f"{path}: {exc}") from exc


@dataclass
class SweepRecord:
    """Measurements at one perturbation parameter."""

    s: float
    t: float = np.nan
    t_alt: float = np.nan
    lemma1_ratio: float = np.nan
    d_h_interior: float = np.nan
    d_h_full: float = np.nan
    near_boundary_sup: float = np.nan
    kappa: int = -1
    kappa_prime: int = -1
    immersion_margin: float = np.nan
    wall_time: float = np.nan
    valid: bool = True
    failure: str = ""


# sweep.csv's columns: every field but the wall time, which goes to timings.csv
SweepRecord.CSV_FIELDS = tuple(f.name for f in fields(SweepRecord)
                               if f.name != "wall_time")


def _require_keys(name: str, d: dict, keys: tuple):
    """Raise ConfigInvalid naming any key of d outside keys."""
    extra = sorted(set(d) - set(keys))
    if extra:
        raise ConfigInvalid(f"unknown {name} keys: {extra}")


def _perturbed_dn(cfg: ExperimentConfig):
    """The family's DN operator as a function of the parameter s.

    fem_metric scales the edges of one disk mesh, built here, by
    1 + s bump sin(2 angle), bump = 1 - |midpoint| clipped to [0, 1]: an
    interior metric, identity on the boundary, that moves the conformal class.
    """
    fam = cfg.perturbation_family
    if fam["kind"] == "conformal_polynomial":
        return lambda s: (dnm.dn_disk(cfg.n_modes) if s == 0.0 else
                          dnm.dn_conformal(dnm.ConformalDomain((s,)), cfg.n_modes))
    res = fam.get("resolution", 24)
    if isinstance(res, bool) or not isinstance(res, int):  # as _FIELD_TYPES's ints
        raise ConfigInvalid(f"resolution must be an integer, got {res!r}")
    try:  # the mesh builder holds the floor
        mesh = dnm.unit_disk_mesh(res)
    except ValueError as exc:
        raise ConfigInvalid(f"disk mesh resolution: {exc}") from exc
    u, v = (mesh.vertices[i] for i in dnm._edge_ends(mesh.triangles))
    bump = np.clip(1.0 - np.linalg.norm(0.5 * (u + v), axis=2), 0.0, 1.0)
    d = v - u
    sin2 = np.sin(2.0 * np.arctan2(d[..., 1], d[..., 0]))

    def dn_at(s: float):
        pert = dnm.TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_loop,
                           mesh.boundary_arclength,
                           mesh.tri_lengths * (1.0 + s * bump * sin2))
        return dnm.dn_fem(pert, n_modes=cfg.n_modes, rescale_to=2.0 * np.pi)

    return dn_at


def _real_traces(cfg: ExperimentConfig) -> tuple[tuple[str, ...], TraceTuple]:
    """(column names, block): the recipe's real traces, then the band's basis
    traces cos m theta and sin m theta, m = 1..8 (1..7 at N = 16, whose mode
    8 is the Nyquist mode), on one grid."""
    n = cfg.n_modes
    th = np.arange(n) * (2.0 * np.pi / n)
    names, columns = [], []
    for recipe in map(str.strip, cfg.immersion.split(",")):
        names.append(f"transport of immersion trace {recipe}")
        columns.append(_RECIPES[recipe](th))
    for m in range(1, min(hm._MAX_BAND, n // 2 - 1) + 1):
        for f in (np.cos, np.sin):
            names.append(f"lemma-1 transport of basis trace {f.__name__}({m} theta)")
            columns.append(f(m * th))
    return tuple(names), TraceTuple(bc.from_samples(c, 2.0 * np.pi) for c in columns)


def _transport(block: TraceTuple, names, lam, proj) -> TraceTuple:
    """hm.transport_immersion, its CertificateFailed naming the failing column."""
    try:
        return hm.transport_immersion(block, lam, proj)
    except CertificateFailed as exc:
        raise CertificateFailed(f"{names[exc.trace]}: {exc}") from exc


def run_sweep(cfg: ExperimentConfig, verbose: bool = False):
    """Execute the sweep; returns (records, summary, clouds).

    A numerical failure at a perturbed parameter marks that record invalid.
    A failure at the s = 0 reference (its operator, the completion of the
    real traces, or a reference cloud with no interior point) raises
    instead, since no record can be measured against it.
    """
    dn_at = cfg.validate()
    # the family at s = 0 on the same discretization, so that t measures
    # the perturbation and not the discretization error
    lam = dn_at(0.0)
    kappa_ref = hm.estimate_kappa(lam)
    proj = hm.build_projections(lam, kappa_ref)
    # the reference block is the real traces completed under lam, the same
    # construction as every transported block, so a t = 0 record reads 0;
    # its first n columns are the immersion, the rest the lemma-1 basis
    names, real = _real_traces(cfg)
    ref = _transport(real, names, lam, proj)
    n = len(cfg.immersion.split(","))
    e = TraceTuple._from_block(ref.coeffs[:, :n], ref.length)
    basis_h3 = bc._sobolev_norms(ref.coeffs[:, n:], ref.length, 3)
    # one shared winding classification: both clouds sample identical targets
    fields = [ap.classify(e[j], cfg.grid_resolution, cfg.epsilon)
              for j in range(len(e))]
    cloud_ref = ap.reconstruct(e, cfg.epsilon, cfg.grid_resolution, fields=fields)
    if not cloud_ref.interior_points().size:
        raise EmptyCloud(
            f"immersion {cfg.immersion!r} gives no winding-1 chart on the "
            "target grid, so the reference cloud has no interior point")
    ref_charts = nb.reference_charts(e, cfg.n_anchors)
    fill_ref = mt.fill_distance(cloud_ref.interior_points())

    records = []
    clouds = []
    for s in cfg.perturbation_family["parameter_list"]:
        rec = SweepRecord(s=float(s))
        t0 = time.perf_counter()
        try:
            lam_p = dn_at(float(s))
            rec.t = hm.dn_distance(lam, lam_p)
            rec.t_alt = bc.operator_norm(lam_p - lam, 3, 2)
            rec.kappa = kappa_ref
            rec.kappa_prime = hm.estimate_kappa(lam_p)
            if rec.kappa_prime != rec.kappa:
                rec.valid, rec.failure = False, "kappa mismatch"
            else:
                proj_p = hm.build_projections(lam_p, rec.kappa_prime)
                moved = _transport(ref, names, lam_p, proj_p)
                e_p = TraceTuple._from_block(moved.coeffs[:, :n], moved.length)
                if rec.t > 0:  # max ||transport(eta) - eta||_C2 / (t ||eta||_H3)
                    change = bc._ck_norms(moved.coeffs[:, n:] - ref.coeffs[:, n:],
                                          moved.length, 2)
                    rec.lemma1_ratio = float(np.max(change / (rec.t * basis_h3)))
                cloud_p = ap.reconstruct(e_p, cfg.epsilon, cfg.grid_resolution,
                                         fields=fields)
                rec.d_h_interior = mt.hausdorff(cloud_ref.interior_points(),
                                                cloud_p.interior_points()).d_h
                rec.d_h_full = mt.hausdorff(cloud_ref.points, cloud_p.points).d_h
                diag = nb.near_boundary_diagnostic(ref_charts, e_p)
                rec.near_boundary_sup = diag.global_sup
                imm = ap.immersion_check(e_p, fields, m=len(e))
                rec.immersion_margin = imm.min_margin if imm.applicable else np.nan
                clouds.append((float(s), cloud_ref, cloud_p))
        except EitlabError as exc:
            rec.valid, rec.failure = False, f"{type(exc).__name__}: {exc}"
        rec.wall_time = time.perf_counter() - t0
        if verbose:
            print(f"s={s}: t={rec.t:.3e} d_h={rec.d_h_interior:.3e} "
                  f"nb={rec.near_boundary_sup:.3e} ({rec.wall_time:.1f}s)")
        records.append(rec)

    summary = _summarize(records, fill_ref, kappa_ref)
    summary["config"] = {k: getattr(cfg, k) for k in
                         ("immersion", "n_modes", "epsilon", "grid_resolution")}
    summary["perturbation_family"] = cfg.perturbation_family
    return records, summary, clouds


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    good = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    if good.sum() < 2:
        return np.nan
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


def _summarize(records, fill_ref: float, kappa_ref: int) -> dict:
    ok = [r for r in records if r.valid]
    t, dh_interior, dh_full, nb_sup, ratio, margin = (
        np.array([getattr(r, name) for r in ok], dtype=float) for name in
        ("t", "d_h_interior", "d_h_full", "near_boundary_sup", "lemma1_ratio",
         "immersion_margin"))
    return {
        "kappa": int(kappa_ref),
        "fill_distance_ref": fill_ref,
        "n_records": len(records),
        "n_valid": len(ok),
        "slope_dh_interior_vs_t": _loglog_slope(t, dh_interior),
        "slope_dh_full_vs_t": _loglog_slope(t, dh_full),
        "slope_nb_sup_vs_t": _loglog_slope(t, nb_sup),
        # nanmin and nanmax of an empty column raise
        "lemma1_ratio_min": float(np.nanmin(ratio)) if ok else np.nan,
        "lemma1_ratio_max": float(np.nanmax(ratio)) if ok else np.nan,
        "immersion_margin_min": float(np.nanmin(margin)) if ok else np.nan,
    }


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _svg_scatter(path: str, cloud_a, cloud_b):
    """Deterministic 480 px scatter of the first complex coordinate of two clouds."""
    size = 480
    pa = cloud_a.points[:, 0]
    pb = cloud_b.points[:, 0]
    allp = np.concatenate([pa, pb])
    x0, x1 = allp.real.min(), allp.real.max()
    y0, y1 = allp.imag.min(), allp.imag.max()
    span = max(x1 - x0, y1 - y0, 1e-12)
    pad = 0.05 * span
    # pixel coordinates of every point, both clouds at once; SVG's y axis
    # points down, so y is flipped
    px = (np.stack([allp.real - x0, allp.imag - y0]) + pad) / (span + 2 * pad) * size
    px[1] = size - px[1]
    # one circle per point, all of them formatted at once by one template
    circle = '<circle cx="%%.2f" cy="%%.2f" r="1.5" fill="%s" fill-opacity="0.6"/>'
    circles = "\n".join([circle % "#1f77b4"] * pa.size + [circle % "#d62728"] * pb.size)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>',
             circles % tuple(px.T.ravel().tolist()), "</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _fresh(path: str) -> str:
    """Unlink path, if it exists, and return it.

    Truncating a file written moments earlier can flush its pending blocks
    first (ext4's auto_da_alloc); a new file does not.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return path


def emit_outputs(records, summary, clouds, output_dir: str):
    """Write sweep.csv, summary.json, clouds/*.csv, plotdata/*.tsv and SVGs.

    Wall times are kept out of sweep.csv so reruns produce byte-identical
    tables; timings go to timings.csv instead.  The records of one sweep
    share one reference cloud, written once as clouds/ref.csv.
    """
    for sub in ("clouds", "plotdata", "plots"):
        os.makedirs(os.path.join(output_dir, sub), exist_ok=True)

    with open(_fresh(os.path.join(output_dir, "sweep.csv")), "w") as fh:
        fh.write(",".join(SweepRecord.CSV_FIELDS) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, f)) for f in SweepRecord.CSV_FIELDS)
                     + "\n")
    with open(_fresh(os.path.join(output_dir, "timings.csv")), "w") as fh:
        fh.write("s,wall_time\n")
        for r in records:
            fh.write(f"{_fmt(r.s)},{r.wall_time:.3f}\n")
    with open(_fresh(os.path.join(output_dir, "summary.json")), "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
    with open(_fresh(os.path.join(output_dir, "plotdata", "dh_vs_t.tsv")), "w") as fh:
        fh.write("t\td_h_interior\n")
        for r in records:
            if r.valid:
                fh.write(f"{_fmt(r.t)}\t{_fmt(r.d_h_interior)}\n")
    if clouds:
        clouds[0][1].to_csv(_fresh(os.path.join(output_dir, "clouds", "ref.csv")))
    for s, ca, cb in clouds:
        tag = _fmt(float(s)).replace(".", "p").replace("-", "m")
        cb.to_csv(_fresh(os.path.join(output_dir, "clouds", f"pert_s{tag}.csv")))
        _svg_scatter(_fresh(os.path.join(output_dir, "plots", f"clouds_s{tag}.svg")),
                     ca, cb)
