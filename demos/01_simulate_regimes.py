"""Simulate a mean-reverting path under each of the four noise regimes.

Run:  python demos/01_simulate_regimes.py

Shows how the driving noise changes the paths: pure Brownian, bounded
jumps, stretched-exponential jump tails, and heavy Pareto tails with only
a fourth moment.
"""

import numpy as np

import oudrift as od

d = 4
model = od.generate_drift(d=d, r=1, s=4, seed=7, spectral_floor=0.5)
print(f"ground truth: d={d}, rank(L0)={od.numerical_rank(model.l0)}, "
      f"nnz(S0)={np.count_nonzero(model.s0)}, stability margin "
      f"{model.stability_margin:.3f}")

regimes = {
    "continuous": od.LevyRegime(tag="continuous", sigma=np.eye(d)),
    "bounded": od.LevyRegime(tag="bounded", sigma=0.5 * np.eye(d),
                             jump_rate=1.0, jump_scale=0.5, z0=1.0),
    "subweibull": od.LevyRegime(tag="subweibull", sigma=0.5 * np.eye(d),
                                jump_rate=1.0, jump_scale=0.5, alpha=1.0),
    "polymoment": od.LevyRegime(tag="polymoment", sigma=0.5 * np.eye(d),
                                jump_rate=1.0, jump_scale=0.5, p=4.0),
}

cfg = od.PathConfig(delta_n=0.1, n_obs=2000, substeps=10, seed=123)
for name, regime in regimes.items():
    obs = od.simulate_path(model, regime, cfg)
    norms = np.sqrt(obs.increment_norms_sq)
    print(f"{name:12s} T={cfg.horizon:.0f}  mean|dX|={norms.mean():.3f}  "
          f"max|dX|={norms.max():7.3f}")

# the Lyapunov balance predicts the stationary covariance in every regime
regime = regimes["continuous"]
obs = od.simulate_path(model, regime, od.PathConfig(delta_n=0.1, n_obs=20000, substeps=10, seed=5))
emp = obs.states.T @ obs.states / obs.states.shape[0]
ref = od.lyapunov_stationary_cov(model.a0, regime.sigma @ regime.sigma.T)
rel = np.linalg.norm(emp - ref) / np.linalg.norm(ref)
print(f"\nstationary covariance check (continuous): relative error {rel:.3f}")
