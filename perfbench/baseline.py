"""Record a baseline: runs of every benchmarked workload over several seeds.

    python3 perfbench/baseline.py [--out FILE]

Runs SETS sets, one after the other, of the same runs.  In a set, each
workload BENCHMARK.json lists runs `run.py` untraced once per seed (seeds
1..SEEDS), and traced right after each of the first TRACED seeds.  Per set and
end-to-end metric it reports the median and the quartile spread (q3 - q1) /
median over the seeds, as `statistics.quantiles(values, n=4)` gives the
quartiles, and per layer the median over the traced runs.  The tracing
overhead is 1 - median traced rows_per_s / median untraced rows_per_s over the
traced seeds.  `worse_by` is how much each later set's median is worse than
the first set's, as a share of the first.  Writes the JSON record to --out
(default: print only).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workload import END_TO_END

HERE = Path(__file__).resolve().parent
SEEDS = 10  # untraced runs per workload and set
TRACED = 3  # of those seeds, the first TRACED also run traced
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=HERE.parent).stdout
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def run_set(names, seconds):
    """One set: every workload over SEEDS seeds; returns its record and the
    environment line of its last run."""
    record = {}
    for name in names:
        values = {metric: [] for metric, _, _ in END_TO_END}
        layers = {}
        for seed in range(1, SEEDS + 1):
            lines, result = run(name, seed, seconds, 0)
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
            if seed <= TRACED:
                _, traced = run(name, seed, seconds, 1)
                for metric, entry in traced["metrics"].items():
                    layers.setdefault(metric, []).append(entry["value"])
        summary = {}
        for metric, unit, _ in END_TO_END:
            vals = values[metric]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"unit": unit, "median": med, "spread": (q3 - q1) / med, "values": vals}
        untraced = statistics.median(values["rows_per_s"][:TRACED])
        record[name] = {
            "end_to_end": summary,
            "tracing_overhead": 1.0 - statistics.median(layers["sweep.rows_per_s"]) / untraced,
            "per_layer_median": {k: statistics.median(v) for k, v in layers.items()},
        }
        print(name, json.dumps({k: (round(v["median"], 4), round(v["spread"], 4)) for k, v in summary.items()}),
              f"tracing_overhead={record[name]['tracing_overhead']:.4f}", flush=True)
    return record, lines[1]


def worse_by(first, later):
    """Per workload and metric, how much later's median is worse than first's."""
    out = {}
    for name, rec in first.items():
        for metric, unit, better in END_TO_END:
            a = rec["end_to_end"][metric]["median"]
            b = later[name]["end_to_end"][metric]["median"]
            out[f"{name}.{metric}"] = (b - a) / a if better == "lower" else (a - b) / a
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    sets = []
    for _ in range(SETS):
        workloads, env = run_set(names, bench["run_seconds"])
        sets.append(workloads)
    record = {
        "cpu": cpu_model(),
        "run_seconds": bench["run_seconds"],
        "environment": env,
        "sets": sets,
        "worse_by": [worse_by(sets[0], later) for later in sets[1:]],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
