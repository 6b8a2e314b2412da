"""Localized and truncated least-squares contrast for drift estimation.

The contrast over a drift candidate ``a`` is

    (1/n) * sum_k 1{ ||X_{k-1}|| <= radius_b, ||dX_k|| <= eta }
                  * || dX_k + a X_{k-1} delta_n ||^2,

a convex quadratic in ``a``.  A built context pre-reduces the active terms to
three sufficient statistics, so loss and gradient evaluations are O(d^3)
regardless of the sample size:

    s0  = (1/n) sum ||dX_k||^2
    m1  = (1/n) sum dX_k X_{k-1}^T
    c_n = (1/n) sum X_{k-1} X_{k-1}^T      (truncated empirical covariance)

The loss is exactly quadratic:  loss(a) = loss(b) + <grad(b), a-b>
+ delta_n^2 * empirical_norm_sq(a-b), with no remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .matrix_ops import as_matrix
from .models import DriftModel
from .simulate import (
    LevyRegime,
    ObservationSet,
    PathConfig,
    derive_seed,
    simulate_path,
)

__all__ = [
    "LocalizationConfig",
    "ContrastContext",
    "DegenerateLocalizationError",
    "build_context",
    "localization_from_observations",
    "loss",
    "gradient",
    "empirical_norm_sq",
    "estimate_disc_bias",
]


class DegenerateLocalizationError(RuntimeError):
    """Raised when localization/truncation leaves no active observation."""


@dataclass(frozen=True)
class LocalizationConfig:
    """Ball radius and increment truncation level for the contrast."""

    radius_b: float
    eta: float

    def __post_init__(self):
        if not 0 < self.radius_b < math.inf:
            raise ValueError("radius_b must be finite and positive")
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be finite and positive")


def localization_from_observations(
    obs: ObservationSet,
    radius_mult: float = 3.0,
    eta_mult: float = 4.0,
    eta_scale: float = 1.0,
) -> LocalizationConfig:
    """Data-driven localization: radius_mult x the RMS state norm and
    eta_mult x the mean increment norm (times a regime-specific eta_scale).

    Raises DegenerateLocalizationError when either level is not positive,
    as on a path that never moves."""
    radius_b = radius_mult * float(np.sqrt(np.vdot(obs.states, obs.states) / len(obs.states)))
    eta = eta_mult * float(np.mean(np.sqrt(obs.increment_norms_sq))) * eta_scale
    if not (radius_b > 0 and eta > 0):
        raise DegenerateLocalizationError(
            f"data-driven localization is degenerate: radius_b={radius_b:g}, eta={eta:g}"
        )
    return LocalizationConfig(radius_b=radius_b, eta=eta)


@dataclass(frozen=True)
class ContrastContext:
    """The contrast's sufficient statistics: all that loss, gradient and the
    certificates read.  n counts every observation; n_active those that
    survived localization and truncation."""

    d: int
    delta_n: float
    n: int
    n_active: int
    s0: float
    m1: np.ndarray
    c_n: np.ndarray


def build_context(obs: ObservationSet, loc: LocalizationConfig) -> ContrastContext:
    """Reduce a path to the contrast's sufficient statistics (module docstring).

    Writes to nothing of obs.  When every row is active, the states are
    read in place and the increments are obs's cached ones (made here if
    no one has read them), so they live as long as obs; a fresh difference
    freed here instead raised the peak RSS of continuous-d20 benchmark
    runs by one path on half of the seeds (glibc malloc).  Otherwise one
    path-sized temporary is alive at a time: the active states for c_n,
    then a fresh difference of the states whose inactive rows are zeroed."""
    x_prev = obs.states[:-1]
    n = obs.n_obs
    active = (np.sqrt(np.einsum("ij,ij->i", x_prev, x_prev)) <= loc.radius_b) & (
        np.sqrt(obs.increment_norms_sq) <= loc.eta
    )
    n_active = int(active.sum())
    if n_active == 0:
        raise DegenerateLocalizationError(
            f"no observation survives radius_b={loc.radius_b:g}, eta={loc.eta:g}"
        )
    all_active = n_active == n
    xa = x_prev if all_active else x_prev[active]
    c_n = xa.T @ xa / n
    del xa
    if all_active:
        inc = obs.increments
    else:
        inc = np.diff(obs.states, axis=0)
        inc[~active] = 0.0
    return ContrastContext(
        d=obs.d,
        delta_n=obs.delta_n,
        n=n,
        n_active=n_active,
        s0=float(np.vdot(inc, inc)) / n,
        m1=inc.T @ x_prev / n,
        c_n=(c_n + c_n.T) / 2.0,
    )


def _checked(ctx: ContrastContext, a) -> np.ndarray:
    a = as_matrix(a)
    if a.shape != (ctx.d, ctx.d):
        raise ValueError(f"expected {ctx.d}x{ctx.d}, got {a.shape}")
    return a


def _loss_given_product(ctx: ContrastContext, a: np.ndarray, ac: np.ndarray) -> float:
    """Loss at a valid (d, d) matrix a, given its product ac = a @ c_n."""
    dn = ctx.delta_n
    quad = float((ac * a).sum())  # (1/n) sum ||a x_k||^2
    return ctx.s0 + 2.0 * dn * float((ctx.m1 * a).sum()) + dn * dn * quad


def _gradient_given_product(ctx: ContrastContext, ac: np.ndarray) -> np.ndarray:
    """Gradient at a, given its product ac = a @ c_n."""
    dn = ctx.delta_n
    return 2.0 * dn * ctx.m1 + 2.0 * dn * dn * ac


def loss(ctx: ContrastContext, a) -> float:
    """Localized/truncated mean squared residual at drift candidate a."""
    a = _checked(ctx, a)
    return _loss_given_product(ctx, a, a @ ctx.c_n)


def gradient(ctx: ContrastContext, a) -> np.ndarray:
    """Gradient of the contrast: (2 dn / n) sum (dX_k + a x_k dn) x_k^T."""
    a = _checked(ctx, a)
    return _gradient_given_product(ctx, a @ ctx.c_n)


def empirical_norm_sq(ctx: ContrastContext, a) -> float:
    """Truncated empirical seminorm: (1/n) sum over active ||a x_k||^2."""
    a = _checked(ctx, a)
    return float(np.sum((a @ ctx.c_n) * a))


def estimate_disc_bias(
    model: DriftModel,
    regime: LevyRegime,
    loc: LocalizationConfig,
    delta_list: Sequence[float],
    t_fixed: float,
    substeps: int = 10,
    replicates: int = 20,
    seed: int = 0,
    x0: Optional[np.ndarray] = None,
    burn_in_time: Optional[float] = None,
) -> np.ndarray:
    """Mesh-dependence of the expected contrast at the true drift.

    For each mesh, the mean of loss(A0) over seeded replicates is computed at
    fixed horizon t_fixed.  That mean behaves like c*mesh + bias(mesh); the
    linear noise-variance part c is removed by Richardson extrapolation from
    the two finest meshes, leaving the discretization bias.  Returns rows
    (mesh, bias estimate) in the input mesh order.  With a single mesh no
    extrapolation is possible and the estimate is 0 by convention.
    """
    deltas = [float(dn) for dn in delta_list]
    if not deltas:
        raise ValueError("delta_list must be nonempty")
    means = {}
    for i, dn in enumerate(deltas):
        n_obs = max(int(round(t_fixed / dn)), 1)
        vals = []
        for rep in range(replicates):
            cfg = PathConfig(
                delta_n=dn,
                n_obs=n_obs,
                substeps=substeps,
                burn_in_time=burn_in_time,
                seed=derive_seed(seed, "disc", i, rep),
            )
            obs = simulate_path(model, regime, cfg, x0=x0)
            ctx = build_context(obs, loc)
            vals.append(loss(ctx, model.a0))
        means[dn] = float(np.mean(vals))

    uniq = sorted(set(deltas))
    if len(uniq) == 1:
        slope = means[uniq[0]] / uniq[0]
    else:
        # Richardson on the two finest meshes: means/mesh = c + b*mesh + ...
        d1, d2 = uniq[0], uniq[1]
        r1, r2 = means[d1] / d1, means[d2] / d2
        slope = (r1 * d2 - r2 * d1) / (d2 - d1)
    rows = [(dn, abs(means[dn] - slope * dn)) for dn in deltas]
    return np.array(rows)
