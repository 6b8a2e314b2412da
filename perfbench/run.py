"""Sweep benchmark for oudrift: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh processes (`workload.py`) with OPENBLAS, OpenMP
and MKL fixed to one thread.  With `--trace 0` the run reports the end-to-end
metrics, and `setup_s` is the median over fresh set-ups before and after.  With
`--trace 1` every layer call the experiment harness makes is traced and the
run reports per-layer self times and counts.  Every sweep's CSV and manifest
are checked; a failed check exits nonzero and names the workload and check.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import END_TO_END, PER_LAYER, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
# Set-up-only processes run before and after the measuring one, so setup_s
# is the median of 2 * SETUP_EACH_SIDE + 1 set-ups spread over the run.
SETUP_EACH_SIDE = 4
TIMEOUT_S = 170  # for all processes of one run


def run_child(args, setup_only, deadline):
    """Run workload.py in a fresh process group; return its JSON report."""
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"workload {args.workload}: timed out after {TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"workload {args.workload}: failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIMEOUT_S
    side = 0 if args.trace else SETUP_EACH_SIDE
    setups = [run_child(args, True, deadline)["setup_s"] for _ in range(side)]
    report = run_child(args, False, deadline)
    setups.append(report["setup_s"])
    setups += [run_child(args, True, deadline)["setup_s"] for _ in range(side)]
    metrics = dict(report["metrics"], setup_s=statistics.median(setups))

    env = report["environment"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {report['rounds']} rounds, "
        f"{report['attempted']} replicates, {report['failed']} failed, output checks passed"
    )
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
        f"nproc {env['nproc']}, " + ", ".join(f"{k}={v}" for k, v in env["threads"].items())
    )
    specs = PER_LAYER if args.trace else END_TO_END
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "rows_per_s": f"over {report['rounds']} rounds",
        "calibrate_s": f"mean of {report['rounds']} rounds",
        "replicate_s_p50": f"median of {report['attempted'] - report['failed']} replicates",
    }
    for name, unit, _ in specs:
        print(f"  {name:40s} {metrics[name]:14.6g} {unit:9s} {notes.get(name, '')}")
    if args.trace:
        print(f"  spans written to {report['spans']}")
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
