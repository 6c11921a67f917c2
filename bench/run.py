"""Benchmark driver for eitlab: one seeded workload, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
holds the per-layer metrics, and the spans are written to ``bench/_out/``.
The lines before it give the environment and a readable summary.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")
WORKLOADS = ("conformal_sweep", "torus_topology", "dense_cloud")
SETUP_SAMPLES = 5          # fresh processes timed per run for setup_s
# One BLAS thread on every commit: at or below nproc on any machine, and the
# same thread count keeps floating-point reductions, hence sweep.csv, fixed.
BLAS_THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the monotonic clock and exit "
                        "(used to time setup_s in a fresh process)")
    return p.parse_args(argv)


def import_program():
    """Import eitlab from this checkout's src/, never from anywhere else.

    The BLAS thread count is fixed first, before numpy loads; the set-up
    processes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "eitlab", "__init__.py")):
        raise SystemExit(f"error: no eitlab sources under {SRC}; run the "
                         "benchmark from the root of a source checkout")
    sys.path.insert(0, SRC)
    import eitlab
    if os.path.dirname(os.path.dirname(os.path.abspath(eitlab.__file__))) != SRC:
        raise SystemExit(f"error: eitlab imported from {eitlab.__file__}")


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "eitlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS),
            "nproc": len(os.sched_getaffinity(0))}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to inputs ready, in SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(res.stdout.split()[-1]) - start)
    return samples


def run_jobs(wl, inputs, seconds: float, log) -> tuple[list[float], int, int]:
    """Closed loop of jobs: start another only while it should end in time."""
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        duration, ok = run_job(wl, inputs, log)
        times.append(duration)
        attempted += wl.ops
        failed += 0 if ok else wl.ops
    return times, attempted, failed


def run_job(wl, inputs, log) -> tuple[float, bool]:
    """Time one job, then check its outputs; a failure fails all its ops."""
    from eitlab.errors import EitlabError
    from workloads import CheckFailed

    t0 = time.perf_counter()
    try:
        try:
            outputs = wl.job(inputs)
        finally:
            duration = time.perf_counter() - t0
        summary = wl.check(inputs, outputs)
    except (EitlabError, CheckFailed) as exc:
        log(f"job failed after {duration:.3f} s: {type(exc).__name__}: {exc}")
        return duration, False
    except Exception:  # a crash still yields a result line, marked incorrect
        traceback.print_exc()
        return duration, False
    log(f"job {duration:.4f} s ok {json.dumps(summary, default=float)}")
    return duration, True


def high_percentile(times: list[float]):
    """(p, value) for the highest of p99 and p90 with ten samples beyond it."""
    for p in (99, 90):
        if len(times) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100)[p - 1]
    return None


def metric_specs(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS as SPECS

    wl = SPECS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}_", dir=OUT)
    try:
        inputs = wl.setup(args.seed, workdir)
        if args.setup_only:
            print(time.monotonic())
            return 0
        measure(args, wl, inputs, workdir)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, inputs, workdir):
    def log(msg):
        print(f"[{wl.name}] {msg}", flush=True)

    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    setup = [] if args.trace else setup_seconds(wl.name, args.seed)
    times, attempted, failed = run_jobs(wl, inputs, args.seconds, log)
    job_s = statistics.median(times)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        wl.setup(args.seed, workdir)          # traced for its spans only
        traced_s, ok = run_job(wl, inputs, log)
        attempted += wl.ops
        failed += 0 if ok else wl.ops
        values = tracer.metrics()
        values["trace.job_s"] = traced_s
        values["trace.overhead_s"] = traced_s - job_s
        path = os.path.join(OUT, f"trace_{wl.name}_seed{args.seed}.json")
        tracer.dump(path, {"workload": wl.name, "env": env})
        log(f"{len(tracer.spans)} spans -> {path}; traced job {traced_s:.3f} s, "
            f"untraced median {job_s:.3f} s")
        specs = metric_specs("per_layer")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values = {"job_s": job_s, "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss_mb}
        tail = high_percentile(times)
        tail = f", p{tail[0]} {tail[1]:.4f} s" if tail else ""
        log(f"job_s {job_s:.4f} s (median of {len(times)} jobs{tail}); "
            f"setup_s {values['setup_s']:.4f} s (median of {len(setup)}); "
            f"peak_rss_mb {rss_mb:.1f} MB; "
            f"failed_share {failed}/{attempted} = {failed / attempted:.3g}")
        specs = metric_specs("end_to_end")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs.items()}}))


if __name__ == "__main__":
    sys.exit(main())
