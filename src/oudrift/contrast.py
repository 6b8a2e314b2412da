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
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .matrix_ops import as_matrix
from .models import DriftModel
from .simulate import (
    LevyRegime,
    ObservationSet,
    PathConfig,
    derive_seed,
    row_blocks,
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
    Reads obs's cached row norms, never the states.

    Raises DegenerateLocalizationError when either level is not positive,
    as on a path that never moves."""
    radius_b = radius_mult * float(np.sqrt(np.mean(obs.state_norms_sq)))
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

    @cached_property
    def c_n_eigvals(self) -> np.ndarray:
        """Eigenvalues of c_n in ascending order, computed on first read and
        cached read-only: the solver's step, the least-squares start's tests
        and the curvature certificate all read this one decomposition."""
        eigs = np.linalg.eigvalsh(self.c_n)
        eigs.flags.writeable = False
        return eigs


def build_context(obs: ObservationSet, loc: LocalizationConfig) -> ContrastContext:
    """Reduce a path to the contrast's sufficient statistics (module docstring).

    The mask, s0 and n_active come from obs's cached row norms.  c_n and m1
    are summed in one pass over the states in blocks (`row_blocks`): each
    block's states with inactive rows zeroed, not dropped, and its
    increments.  Writes to nothing of obs and makes no path-sized array."""
    x, n, d = obs.states, obs.n_obs, obs.d
    x_prev = x[:-1]
    norms_sq = obs.increment_norms_sq
    active = (np.sqrt(obs.state_norms_sq[:-1]) <= loc.radius_b) & (np.sqrt(norms_sq) <= loc.eta)
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        raise DegenerateLocalizationError(
            f"no observation survives radius_b={loc.radius_b:g}, eta={loc.eta:g}"
        )
    blocks = row_blocks(n, d)
    xa = np.empty((blocks[0][1], d))
    inc = np.empty_like(xa)
    c_n = np.zeros((d, d))
    m1 = np.zeros((d, d))
    for start, stop in blocks:
        k = stop - start
        xb = np.multiply(x_prev[start:stop], active[start:stop, None], out=xa[:k])
        db = np.subtract(x[start + 1 : stop + 1], x_prev[start:stop], out=inc[:k])
        c_n += xb.T @ xb
        m1 += db.T @ xb
    return ContrastContext(
        d=d,
        delta_n=obs.delta_n,
        n=n,
        n_active=n_active,
        s0=float(np.sum(norms_sq, where=active)) / n,
        m1=m1 / n,
        c_n=(c_n + c_n.T) / (2.0 * n),
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
