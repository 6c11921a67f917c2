"""Command-line driver for DN computation, reconstruction and sweeps."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import argument as ap
from . import boundary as bc
from . import dn as dnm
from . import experiments as ex
from . import holomorphic as hm
from . import metrics as mt
from .errors import ConfigInvalid, EitlabError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _cmd_sweep(args) -> int:
    cfg = ex.ExperimentConfig.from_json(args.config)
    if args.out:
        cfg.output_dir = args.out
    try:  # run_sweep validates the config first
        records, summary, clouds = ex.run_sweep(cfg, verbose=args.verbose)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{args.config}: {exc}") from exc
    ex.emit_outputs(records, summary, clouds, cfg.output_dir)
    n_bad = sum(not r.valid for r in records)
    print(f"sweep: {len(records)} records ({n_bad} failed) -> {cfg.output_dir}")
    return EXIT_OK if n_bad == 0 else EXIT_NUMERICAL


def _read_json(path: str, from_json):
    """from_json applied to a JSON file; a malformed file raises ConfigInvalid."""
    with open(path) as fh:
        try:
            return from_json(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


def _build_dn(args):
    try:
        bc._require_grid(args.n_modes)
    except ValueError as exc:
        raise ConfigInvalid(f"--n-modes: {exc}") from exc
    if args.surface == "disk":
        return dnm.dn_disk(args.n_modes)
    if args.surface.startswith("conformal:"):
        try:
            coeffs = tuple(map(float, args.surface.removeprefix("conformal:").split("+")))
        except ValueError as exc:
            raise ConfigInvalid(f"surface {args.surface!r}: {exc}") from exc
        if not np.all(np.isfinite(coeffs)):
            raise ConfigInvalid(f"surface {args.surface!r}: non-finite coefficient")
        return dnm.dn_conformal(dnm.ConformalDomain(coeffs), args.n_modes)
    if args.surface in ("fem-disk", "torus"):
        disk = args.surface == "fem-disk"
        build = dnm.unit_disk_mesh if disk else dnm.make_one_holed_torus_mesh
        try:
            mesh = build(args.resolution)
        except ValueError as exc:
            raise ConfigInvalid(f"--resolution: {exc}") from exc
        return dnm.dn_fem(mesh, n_modes=args.n_modes,
                          rescale_to=2.0 * np.pi if disk else None)
    if args.surface.endswith(".off"):
        mesh = dnm.load_off(args.surface)
        return dnm.dn_fem(mesh, n_modes=args.n_modes)
    raise ConfigInvalid(f"unknown surface {args.surface!r}")


def _cmd_dn(args) -> int:
    op = _build_dn(args)
    with open(args.out, "w") as fh:
        json.dump(op.to_json(), fh)
    print(f"dn: {args.surface} ({op.n_modes} modes, length {op.length:.6g}) "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    if not args.epsilon > 0:
        raise ConfigInvalid(f"--epsilon must be positive, got {args.epsilon}")
    if args.grid_resolution < ex._MIN_GRID_RESOLUTION:
        raise ConfigInvalid(f"--grid-resolution must be >= {ex._MIN_GRID_RESOLUTION}, "
                            f"got {args.grid_resolution}")
    e = _read_json(args.traces, hm.TraceTuple.from_json)
    cloud = ap.reconstruct(e, args.epsilon, args.grid_resolution)
    cloud.to_csv(args.out)
    print(f"reconstruct: {cloud.n_points} points "
          f"({cloud.n_dropped} dropped) -> {args.out}")
    return EXIT_OK


def _cmd_hausdorff(args) -> int:
    a = ap.ReconstructedCloud.from_csv(args.cloud_a)
    b = ap.ReconstructedCloud.from_csv(args.cloud_b)
    res = mt.hausdorff(a.points, b.points)
    out = res.to_json()
    out["fill_distance_a"] = mt.fill_distance(a.points)
    out["fill_distance_b"] = mt.fill_distance(b.points)
    text = json.dumps(out, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


def _cmd_kappa(args) -> int:
    op = _read_json(args.dn, hm.BoundaryOperator.from_json)
    kappa = hm.estimate_kappa(op)
    gap = hm.spectral_gap(op, kappa)
    # strict JSON has no Infinity: an infinite gap is printed as null
    print(json.dumps({"kappa": kappa,
                      "spectral_gap": gap if np.isfinite(gap) else None},
                     allow_nan=False))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eitlab",
        description="Boundary-data stability laboratory for surface images")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sweep", help="run a perturbation sweep from a config")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default=None)
    ps.add_argument("--verbose", action="store_true")
    ps.set_defaults(fn=_cmd_sweep)

    pd = sub.add_parser("dn", help="compute a DN operator and dump it as JSON")
    pd.add_argument("--surface", required=True,
                    help="disk | conformal:a2 | fem-disk | torus | mesh.off")
    pd.add_argument("--n-modes", type=int, default=256)
    pd.add_argument("--resolution", type=int, default=24)
    pd.add_argument("--out", required=True)
    pd.set_defaults(fn=_cmd_dn)

    pr = sub.add_parser("reconstruct", help="trace tuple JSON -> cloud CSV")
    pr.add_argument("--traces", required=True)
    pr.add_argument("--epsilon", type=float, default=0.2)
    pr.add_argument("--grid-resolution", type=int, default=48)
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=_cmd_reconstruct)

    ph = sub.add_parser("hausdorff", help="two cloud CSVs -> distance JSON")
    ph.add_argument("cloud_a")
    ph.add_argument("cloud_b")
    ph.add_argument("--out", default=None)
    ph.set_defaults(fn=_cmd_hausdorff)

    pk = sub.add_parser("kappa", help="DN operator JSON -> topology rank")
    pk.add_argument("--dn", required=True)
    pk.set_defaults(fn=_cmd_kappa)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigInvalid, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EitlabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
