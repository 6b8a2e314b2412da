"""Estimate a low-rank plus sparse drift from one simulated path.

Run:  python demos/02_estimate_drift.py

Walks the full estimation pipeline by hand: simulate, localize/truncate,
pick penalty levels, solve, and inspect the certificates that back the
risk bound (first-order optimality, error-cone membership, dual-norm
gradient bounds, and the curvature floor of the truncated covariance).
"""

import numpy as np

import oudrift as od
from oudrift.matrix_ops import _CERT_TOL  # check_optimality's pass tolerance

d, r, s = 12, 2, 12
model = od.generate_drift(d=d, r=r, s=s, seed=3, spectral_floor=0.5)
regime = od.LevyRegime(tag="continuous", sigma=np.eye(d))

cfg = od.PathConfig(delta_n=0.05, n_obs=40000, substeps=10, seed=11)  # T = 2000
obs = od.simulate_path(model, regime, cfg)
loc = od.localization_from_observations(obs)
ctx = od.build_context(obs, loc)
t_horizon = cfg.n_obs * cfg.delta_n
print(f"path: T={t_horizon:.0f}, n={ctx.n}, active fraction "
      f"{ctx.n_active / ctx.n:.3f} (radius {loc.radius_b:.2f}, eta {loc.eta:.3f})")

# penalty levels: rate-shaped rule; the constants come from a small pilot
# calibration in the experiment harness, here set by hand at that scale
tuning = od.TuningConfig(c_op=2e-3, c_one=5e-4)
lambdas = od.tune_lambdas(d, t_horizon, tuning)
print(f"penalties: lambda_* = {lambdas[0]:.2e}, lambda_1 = {lambdas[1]:.2e}")

result = od.solve(ctx, lambdas, od.SolverConfig(tol=1e-12, max_iters=20000))
print(f"solver: {result.iterations} iterations, converged={result.converged}, "
      f"objective {result.objective_trace[0]:.6f} -> {result.objective_trace[-1]:.6f}")

metrics = od.compute_error_metrics(model, result)
print(f"\nerror:   ||A_hat - A0||_F^2 = {metrics.frob_err_sq:.4f} "
      f"(||A0||_F^2 = {np.sum(model.a0**2):.1f})")
print(f"ranks:   rank(L_hat) = {metrics.rank_l_hat} (true {r})")
print(f"support: precision {metrics.support_precision:.2f}, "
      f"recall {metrics.support_recall:.2f}")

opt = od.check_optimality(ctx, result, lambdas)
print(f"\noptimality residuals: nuclear {opt.nuclear_residual:.2e}, "
      f"l1 {opt.l1_residual:.2e} (tol {_CERT_TOL:g})")

cone = od.cone_membership(model.tangent, result.l_hat - model.l0,
                          result.s_hat - model.s0)
print(f"error cone: low-rank ratio {cone.lowrank_ratio:.2f}, sparse ratio "
      f"{cone.sparse_ratio:.2f}, in cone = {cone.in_cone}")

# the concentration thresholds live above the risk-tuned solver level
# (the experiment harness calibrates both scales from pilots; the typical
# gap is a factor 10-20, see README)
cert_lambdas = (16 * lambdas[0], 16 * lambdas[1])
dual = od.verify_dual_bounds(ctx, model, cert_lambdas)
print(f"dual bounds at truth: |grad|_op {dual.grad_op_norm:.2e} vs "
      f"threshold {cert_lambdas[0] / 2:.2e} (pass={dual.op_pass}); "
      f"|grad|_inf {dual.grad_inf_norm:.2e} vs threshold "
      f"{cert_lambdas[1] / 2:.2e} (pass={dual.inf_pass})")

reference = od.lyapunov_stationary_cov(model.a0, od.total_noise_cov(regime, d))
rsc = od.verify_rsc(ctx, reference_cov=reference)
print(f"curvature: min eig of truncated covariance {rsc.min_eig_cn:.3f} vs "
      f"half-reference {rsc.c_b_proxy / 2:.3f} (pass={rsc.passes})")
