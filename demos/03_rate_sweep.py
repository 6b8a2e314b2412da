"""Reproduce the 1/T risk decay with the experiment harness.

Run:  python demos/03_rate_sweep.py          (a few seconds)

Uses a shrunk version of the continuous-noise preset: calibrates penalty
constants on pilot replicates, sweeps the horizon, and fits the log-log
rate.  The full-size preset is what the acceptance suite runs; this demo
keeps dimensions small so it finishes quickly.  Equivalent CLI:

    oudrift preset --name continuous --emit cfg.json
    # edit cfg.json, then
    oudrift run --config cfg.json --out results/
    oudrift summarize --results results/continuous_results.csv --group-by t_horizon
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

import oudrift as od
from oudrift.experiment import regime_preset, run_experiment, summarize

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

cfg = regime_preset("continuous")
cfg = replace(
    cfg,
    d=8,
    r=1,
    s=8,
    t_sweep=(125.0, 250.0, 500.0, 1000.0),
    replicates=8,
    calibration_reps=12,
    regime=od.LevyRegime(tag="continuous", sigma=np.eye(8)),
    name="demo_rate",
    output_dir=str(OUT),
)

results = run_experiment(cfg)
print(f"results -> {results}")

report = summarize(results, ["t_horizon"])
for group in report["groups"]:
    print(f"T={float(group['t_horizon']):6.0f}  mean err^2 = "
          f"{group['frob_err_sq_mean']:.4f}  (n={group['n']}, "
          f"cone {group['cone_pass_rate']:.2f}, dual {group['dual_pass_rate']:.2f}, "
          f"curvature {group['rsc_pass_rate']:.2f})")
print(f"\nlog-log slope of mean err^2 vs T: {report['slope_log_t']:.3f} "
      f"(R^2 {report['slope_r_squared']:.3f}); -1 is the rate-bound prediction")
if "oracle_fit" in report:
    fit = report["oracle_fit"]
    print(f"risk-bound-shape fit: C1={fit['c1']:.3g} (mesh-bias term), "
          f"C2={fit['c2']:.3g} (rate term), R^2={fit['r_squared']:.3f}")
print(f"summary -> {report['summary_path']}\nplot data -> {report['plotdata_path']}")
