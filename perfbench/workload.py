"""One workload process: build the workload from its seed, run it, check it.

Run by `run.py` in a fresh process with the BLAS thread counts fixed to 1:

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC [--setup-only]

Set-up (imports, config build, one small warm-up sweep) ends when the process
is ready; `setup_s` counts from `--t0`, the parent's clock just before the
start.  Then the process repeats rounds, one `run_experiment` sweep each, for
about `--seconds`.  Round i sweeps the workload with `seed_base = seed * 1000
+ i`, so a seed fixes every input.  Each round's CSV and manifest are checked.
The last stdout line is a JSON report.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pilots and replicates per round.  The preset's 30 pilots take about a minute
# at T=2000.  Rounds are short (7-14 s) against a run, so a run holds three or
# more of them, whose length in time and whose calibration count do not jump
# with the host's speed.  pool2 keeps continuous-d20's values so the ratio of
# their rows_per_s is the two-process scaling efficiency.  BENCHMARK.json
# lists only the serial workloads: on a 2-vCPU shared host, pool2's times
# measure the scheduler (run-to-run spreads up to 26%), so it is run by hand.
WORKLOADS = {
    "continuous-d20": {"pilots": 2, "replicates": 4, "parallel": 1},
    "polymoment-d60": {"pilots": 4, "replicates": 4, "parallel": 1},
    "continuous-d20-pool2": {"pilots": 2, "replicates": 4, "parallel": 2},
}

# (name, unit, better) of every metric a run reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("replicate_s_p50", "s", "lower"),
    ("calibrate_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("risk_mean", "frob_sq", "lower"),
]
_SCOPED = [
    ("simulate.self_s", "s", "lower"),
    ("simulate.calls", "count", "lower"),
    ("simulate.steps", "count", "lower"),
    ("simulate.ns_per_step", "ns", "lower"),
    ("contrast.self_s", "s", "lower"),
    ("contrast.active_frac", "fraction", "higher"),
    ("solver.self_s", "s", "lower"),
    ("solver.calls", "count", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.ms_per_iter", "ms", "lower"),
    ("solver.converged_frac", "fraction", "higher"),
    ("solver.cert_pass_frac", "fraction", "higher"),
    ("solver.residual_p50", "ratio", "lower"),
    ("matrix_ops.svd_calls", "count", "lower"),
    ("matrix_ops.svd_s", "s", "lower"),
    ("matrix_ops.svd_per_iter", "1/iter", "lower"),
    ("models.generate_s", "s", "lower"),
    ("models.lyapunov_s", "s", "lower"),
    ("models.lyapunov_bytes", "bytes", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.calls", "count", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("experiment.wall_s", "s", "lower"),
]
PER_LAYER = [
    (f"{scope}.{name}", unit, better)
    for scope in ("calibrate", "replicate")
    for name, unit, better in _SCOPED
] + [
    ("sweep.experiment.self_s", "s", "lower"),
    ("sweep.experiment.serial_s", "s", "lower"),
    ("sweep.experiment.pool_s", "s", "lower"),
    ("sweep.experiment.risk_mult_at_edge", "fraction", "lower"),
    ("sweep.rows_per_s", "rows/s", "higher"),
]


class CheckError(RuntimeError):
    """An output check failed; the message names the workload and the check."""


def import_experiment(root=ROOT):
    """Import oudrift.experiment from `root/src`, and nowhere else."""
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import oudrift.experiment as ex

    if src not in Path(ex.__file__).resolve().parents:
        raise ImportError(f"oudrift imported from {ex.__file__}, not from {src}")
    return ex


def build_config(ex, workload, seed_base, d=None):
    """The workload's ExperimentConfig; `d` overrides its dimension."""
    spec = WORKLOADS[workload]
    if workload.startswith("continuous"):
        base = ex.regime_preset("continuous")
        d = d or base.d
        cfg = replace(
            base, regime=replace(base.regime, sigma=np.eye(d)), d=d,
            t_sweep=(max(base.t_sweep),),
        )
    else:
        base = ex.regime_preset("polymoment")
        d = d or 60
        cfg = replace(
            base, regime=replace(base.regime, sigma=0.5 * np.eye(d)), d=d, r=2, s=d,
            delta_n=0.1, t_sweep=(250.0,),
        )
    return replace(
        cfg, replicates=spec["replicates"], calibration_reps=spec["pilots"],
        seed_base=seed_base, name=workload,
    )


def small_config(ex, workload, seed_base, d=4, replicates=1):
    """A few-second sweep of the workload's regime at dimension d."""
    cfg = build_config(ex, workload, seed_base, d=d)
    return replace(
        cfg, r=1, s=d, t_sweep=(50 * cfg.delta_n,), replicates=replicates, calibration_reps=2,
    )


def warm_up(ex, workload, seed_base, out_dir):
    """One small serial sweep of the workload's regime, so lazy library
    start-up (BLAS, LAPACK) is not charged to the first round."""
    ex.run_experiment(small_config(ex, workload, seed_base), parallel=1, out_dir=str(out_dir))


def check_outputs(ex, cfg, results_path):
    """Check one sweep's outputs; return its rows or raise CheckError."""

    def fail(check, detail):
        raise CheckError(f"workload {cfg.name}: check {check!r} failed: {detail}")

    with open(results_path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = list(reader)
    if header != ex.RESULT_COLUMNS:
        fail("csv_header", f"header {header} != RESULT_COLUMNS")
    keys = Counter((float(r["t_horizon"]), int(r["replicate"])) for r in rows)
    expected = {(t, rep) for t in cfg.t_sweep for rep in range(cfg.replicates)}
    if set(keys) != expected or any(n != 1 for n in keys.values()):
        fail("unique_keys", f"(t_horizon, replicate) counts {dict(keys)}")
    for r in rows:
        if r["failed"] == "0":
            err = float(r["frob_err_sq"])
            if not (math.isfinite(err) and err > 0):
                fail("frob_err_sq", f"replicate {r['replicate']}: {err}")
    manifest = results_path.with_name(f"{cfg.name}_manifest.json")
    if not manifest.is_file():
        fail("manifest", f"{manifest.name} missing")
    with open(manifest, "r", encoding="utf-8") as fh:
        return rows, json.load(fh)


def run_round(ex, tracer, cfg, parallel, out_dir):
    """One `run_experiment` sweep inside a span; returns (wall_s, rows, manifest)."""
    start = perf_counter()
    path = tracer.call("run_experiment", ex.run_experiment, cfg, parallel=parallel, out_dir=str(out_dir))
    wall = perf_counter() - start
    rows, manifest = check_outputs(ex, cfg, path)
    return wall, rows, manifest


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure(ex, args, work):
    """Run rounds for about args.seconds; return the report's metrics."""
    spec = WORKLOADS[args.workload]
    if args.trace:
        tracer = tracing.Tracer(pool_dir=work if spec["parallel"] > 1 else None)
    else:  # untraced: only the one calibrate_tuning call per round is timed
        tracer = tracing.Tracer(names=["calibrate_tuning"])
    walls, rows, edges = [], [], []
    t0 = perf_counter()
    with tracer:
        while True:
            cfg = build_config(ex, args.workload, args.seed * 1000 + len(walls))
            wall, round_rows, manifest = run_round(ex, tracer, cfg, spec["parallel"], work / f"round-{len(walls)}")
            if args.trace:
                tracer.collect_workers()
                tracer.certify()
            walls.append(wall)
            rows.extend(round_rows)
            grid = cfg.risk_multipliers
            edges.append(manifest["risk_multiplier"] in (min(grid), max(grid)))
            # Stop at the round whose end lands nearest to args.seconds.
            if perf_counter() - t0 + 0.5 * statistics.median(walls) >= args.seconds:
                break
    rounds = len(walls)
    ok = [r for r in rows if r["failed"] == "0"]
    report = {"rounds": rounds, "attempted": len(rows), "failed": len(rows) - len(ok)}
    if args.trace:
        spans_path = ROOT / ".perfbench_out" / f"{args.workload}.spans.jsonl"
        tracer.dump(spans_path)
        metrics = tracing.layer_metrics(tracer.spans, tracer.layer_of, rounds)
        metrics.update(tracing.sweep_metrics(tracer.spans, rounds, len(rows)))
        metrics["sweep.experiment.risk_mult_at_edge"] = sum(edges) / rounds
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        # Peak RSS of this process plus that of its largest child (pool worker).
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        calib = [end - begin for name, begin, end, _, _ in tracer.spans if name == "calibrate_tuning"]
        metrics = {
            "rows_per_s": len(rows) / sum(walls),
            "replicate_s_p50": statistics.median(float(r["wall_time_s"]) for r in ok),
            "calibrate_s": statistics.fmean(calib),
            "peak_rss_mb": rss_kb / 1024.0,
            "risk_mean": statistics.fmean(float(r["frob_err_sq"]) for r in ok),
        }
    report["metrics"] = metrics
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ex = import_experiment()
    work = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        warm_up(ex, args.workload, args.seed * 1000, work / "warm-up")
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            report = {"setup_s": setup_s}
        else:
            report = measure(ex, args, work)
            report.update(setup_s=setup_s, environment=environment(), correct=True)
    except CheckError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
