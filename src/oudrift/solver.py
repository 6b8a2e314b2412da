"""Nuclear-plus-l1 penalized drift estimation by accelerated proximal gradient.

The problem is

    min_{L,S}  loss(L + S) + lambda_star ||L||_* + lambda_one ||S||_1

with the localized contrast as the smooth part.  The smooth gradient depends
on the pair only through the sum, so one gradient evaluation feeds both
per-block prox steps (singular value thresholding for L, soft thresholding
for S).  Each pair step is followed by one step on S alone, which costs no
eigendecomposition.  Momentum acceleration is restarted whenever it would
increase the objective, so the recorded objective trace is non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contrast import (
    ContrastContext,
    _gradient_given_product,
    _loss_given_product,
    gradient,
)
from .matrix_ops import (
    _CERT_TOL,
    _RANK_TOL,
    _singular_value_threshold,
    _soft_threshold,
    l1_norm,
    linf_norm,
    nuclear_norm,
    operator_norm,
)
from .simulate import LevyRegime

__all__ = [
    "TuningConfig",
    "SolverConfig",
    "EstimateResult",
    "OptimalityReport",
    "DivergenceError",
    "gamma_factor",
    "tune_lambdas",
    "solve",
    "check_optimality",
]


class DivergenceError(RuntimeError):
    """Raised when the solver objective becomes non-finite."""


@dataclass(frozen=True)
class TuningConfig:
    """Constants of the penalty-level rule (`tune_lambdas`)."""

    c_op: float = 1.0
    c_one: float = 1.0
    gamma_value: float = 1.0

    def __post_init__(self):
        # `0 < x < inf` also rejects NaN, which passes every `<= 0` check
        if not (0 < self.c_op < math.inf and 0 < self.c_one < math.inf):
            raise ValueError("c_op and c_one must be finite and positive")
        if not 0 < self.gamma_value < math.inf:
            raise ValueError("gamma_value must be finite and positive")


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    tol: float = 1e-8               # relative objective decrease

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")


@dataclass
class EstimateResult:
    l_hat: np.ndarray
    s_hat: np.ndarray
    a_hat: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def gamma_factor(regime: LevyRegime, delta_n: float) -> float:
    """Regime-dependent scaling factor of the concentration rate.

    Constant for continuous and bounded-jump noise, poly-logarithmic in
    1/delta_n for sub-Weibull tails (defined for delta_n < 1, where
    log(1/delta_n) > 0), polynomial for p-th moment tails.  Configurable
    placeholder rules; a fixed TuningConfig sets its own gamma_value.
    """
    if delta_n <= 0:
        raise ValueError("delta_n must be positive")
    if regime.tag in ("continuous", "bounded"):
        return 1.0
    if regime.tag == "subweibull":
        if delta_n >= 1:
            raise ValueError(f"delta_n must be below 1 for the subweibull rule, got {delta_n:g}")
        return (1.0 + math.log(1.0 / delta_n)) ** (2.0 / regime.alpha)
    if regime.tag == "polymoment":
        return delta_n ** (-2.0 / regime.p)
    raise ValueError(f"unknown regime tag {regime.tag!r}")


def tune_lambdas(d: int, t_horizon: float, tuning: TuningConfig) -> tuple:
    """Penalty levels (lambda_star, lambda_one) from the rate-based rule.

    lambda_star = 2 c_op sqrt(gamma log(d) / T),
    lambda_one  = 2 c_one sqrt(gamma log(d^2) / T).
    """
    if d < 2:
        raise ValueError("need d >= 2 for a positive log d")
    if t_horizon <= 0:
        raise ValueError("t_horizon must be positive")
    g = tuning.gamma_value
    lam_star = 2.0 * tuning.c_op * math.sqrt(g * math.log(d) / t_horizon)
    lam_one = 2.0 * tuning.c_one * math.sqrt(2.0 * g * math.log(d) / t_horizon)
    return lam_star, lam_one


def _start(value, name: str, d: int) -> np.ndarray:
    """A (d, d) block of `solve`'s start, copied; zeros when None."""
    if value is None:
        return np.zeros((d, d))
    m = np.array(value, dtype=float)
    if m.shape != (d, d):
        raise ValueError(f"{name} must have shape ({d}, {d}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product <a, b> of two contiguous arrays, as one BLAS dot."""
    return float(a.ravel() @ b.ravel())


def _prox_step(l_pt, s_pt, g, tau, lam_star, lam_one):
    """One prox-gradient step on both blocks; also returns ||l_new||_*.
    Calls the unchecked prox kernels: the inputs must be finite."""
    tau_g = tau * g
    l_new, spectrum = _singular_value_threshold(l_pt - tau_g, tau * lam_star)
    s_new = _soft_threshold(s_pt - tau_g, tau * lam_one)
    return l_new, s_new, float(spectrum.sum())


def _backtracked_step(ctx, lam_star, lam_one, l_pt, s_pt, ac_pt, loss_pt, tau, iteration):
    """A prox-gradient step from (l_pt, s_pt), given their sum's product
    ac_pt with c_n and smooth loss loss_pt; tau halves until the new pair's
    loss lies under the quadratic upper bound.  Returns the new pair, its
    product, smooth loss and objective, the accepted tau and ||s_new||_1.

    A finite loss at a point makes the pair and its product finite, so
    checking the scalar loss at the start point and at each trial point
    keeps the prox kernels' inputs finite; a gradient that still overflows
    makes eigh raise.  Each of these raises DivergenceError."""
    if not math.isfinite(loss_pt):
        raise DivergenceError(f"objective non-finite at iteration {iteration}")
    g = _gradient_given_product(ctx, ac_pt)
    while True:
        try:
            l_new, s_new, nuc_new = _prox_step(l_pt, s_pt, g, tau, lam_star, lam_one)
        except np.linalg.LinAlgError as exc:
            raise DivergenceError(f"gradient non-finite at iteration {iteration}") from exc
        dl = l_new - l_pt
        ds = s_new - s_pt
        a_new = l_new + s_new
        ac_new = a_new @ ctx.c_n
        loss_new = _loss_given_product(ctx, a_new, ac_new)
        if not math.isfinite(loss_new):
            raise DivergenceError(f"objective non-finite at iteration {iteration}")
        bound = (
            loss_pt
            + _dot(g, dl) + _dot(g, ds)
            + (_dot(dl, dl) + _dot(ds, ds)) / (2.0 * tau)
        )
        if loss_new <= bound + 1e-14 * max(1.0, abs(bound)):
            break
        tau *= 0.5
    l1_new = float(np.abs(s_new).sum())
    f_new = loss_new + lam_star * nuc_new + lam_one * l1_new
    return l_new, s_new, ac_new, loss_new, f_new, tau, l1_new


def _sparse_step(ctx, lam_one, s, l1_s, ac, loss_s, f, tau):
    """One prox-gradient step on the sparse block alone, the low-rank block
    held fixed, from a pair whose sparse block s has l1 norm l1_s and whose
    sum has product ac with c_n, smooth loss loss_s and objective f.  tau
    must be at most the S-only inverse Lipschitz constant
    1 / (2 delta_n^2 max-eig(c_n)), so the step needs no line search.  The new loss follows from the exact quadratic expansion
    loss(a + ds) = loss(a) + <g, ds> + delta_n^2 <ds c_n, ds>, whose one
    product ds @ c_n also updates ac.

    Returns (s, ac, loss, objective) after the step when its objective is
    strictly lower, else the inputs unchanged (a NaN candidate is never
    lower)."""
    g = _gradient_given_product(ctx, ac)
    s_new = _soft_threshold(s - tau * g, tau * lam_one)
    ds = s_new - s
    dc = ds @ ctx.c_n
    dloss = _dot(g, ds) + ctx.delta_n * ctx.delta_n * _dot(dc, ds)
    f_new = f + dloss + lam_one * (float(np.abs(s_new).sum()) - l1_s)
    if f_new < f:
        return s_new, ac + dc, loss_s + dloss, f_new
    return s, ac, loss_s, f


def solve(
    ctx: ContrastContext,
    lambdas: tuple,
    cfg: SolverConfig = SolverConfig(),
    start: Optional[tuple] = None,
) -> EstimateResult:
    """Minimize the penalized contrast over the pair (L, S).

    Accelerated proximal gradient (FISTA) with a backtracking line search
    from tau = 1 / (2 delta_n^2 max-eig(c_n)), twice the inverse Lipschitz
    constant of the pair problem.  A step from the extrapolated point that
    raises the objective restarts the momentum and is retaken from the
    current iterate, so the objective trace is non-increasing.  Each
    accepted pair step is followed by exactly one prox-gradient step on the
    sparse block alone at the S-only inverse Lipschitz constant
    1 / (2 delta_n^2 max-eig(c_n)) (`_sparse_step`), kept only when it
    lowers the objective strictly; an iteration is the two together.  Stops
    when the iteration's relative objective decrease falls below cfg.tol,
    except that a momentum step which does not decrease the objective
    restarts the momentum instead: only a step from the current iterate may
    stop on a tie.

    The iteration starts from start = (l_init, s_init), zeros when start
    is None; each block must be a finite (d, d) matrix (ValueError naming
    it otherwise), and is copied, never modified.  A warm start changes
    where the iteration starts, not the problem: near a previous solution
    it reaches the tol stop in fewer iterations.  Raises DivergenceError when
    the objective is non-finite at the start, at an extrapolated point or
    at a trial point, or when a gradient overflows.

    Cost per iteration: one Gram eigendecomposition per pair prox step (the
    loop calls the unchecked prox kernels) and none for the sparse step; one
    product a @ c_n per evaluated point of a pair step, shared by the loss
    and the gradient there (the loss is exactly quadratic; a step from the
    current iterate reuses the product the previous iteration left); one
    product ds @ c_n for the sparse step, which gives its loss by the exact
    quadratic expansion and updates the product; inner products as BLAS
    dots, and plain array passes.  Element-wise validation happens only at
    the public boundary (the start and the initial objective); in the loop,
    a scalar finiteness check of the loss at each start and trial point
    keeps the kernels' inputs finite.
    """
    lam_star, lam_one = float(lambdas[0]), float(lambdas[1])
    if not (0 <= lam_star < math.inf and 0 <= lam_one < math.inf):
        raise ValueError("penalty levels must be finite and nonnegative")
    d = ctx.d
    dn = ctx.delta_n
    c_n = ctx.c_n

    l_init, s_init = (None, None) if start is None else start
    l_cur = _start(l_init, "l_init", d)
    s_cur = _start(s_init, "s_init", d)

    # the S-only inverse Lipschitz constant: the sparse step's fixed step
    # and the pair step's first trial
    lip = 2.0 * dn * dn * float(ctx.c_n_eigvals[-1])
    tau_s = tau = 1.0 / lip if lip > 0 else 1.0

    # the smooth part at the current iterate: its product with c_n and loss
    a_cur = l_cur + s_cur
    ac_cur = a_cur @ c_n
    loss_cur = _loss_given_product(ctx, a_cur, ac_cur)
    f_cur = loss_cur + lam_star * nuclear_norm(l_cur) + lam_one * l1_norm(s_cur)
    if not math.isfinite(f_cur):
        raise DivergenceError("objective non-finite at the initial point")
    trace = [f_cur]

    l_prev, s_prev = l_cur, s_cur
    t_mom = 1.0
    converged = False
    iterations = 0

    for it in range(1, cfg.max_iters + 1):
        iterations = it
        momentum_step = t_mom > 1.0
        if momentum_step:
            beta = (t_mom_prev - 1.0) / t_mom
            l_pt = l_cur + beta * (l_cur - l_prev)
            s_pt = s_cur + beta * (s_cur - s_prev)
            a_pt = l_pt + s_pt
            ac_pt = a_pt @ c_n
            loss_pt = _loss_given_product(ctx, a_pt, ac_pt)
            l_new, s_new, ac_new, loss_new, f_new, tau, l1_new = _backtracked_step(
                ctx, lam_star, lam_one, l_pt, s_pt, ac_pt, loss_pt, tau, it
            )
            if f_new > f_cur:  # momentum overshot: restart from the current iterate
                momentum_step = False
                t_mom = 1.0
        if not momentum_step:
            l_new, s_new, ac_new, loss_new, f_new, tau, l1_new = _backtracked_step(
                ctx, lam_star, lam_one, l_cur, s_cur, ac_cur, loss_cur, tau, it
            )
        s_new, ac_new, loss_new, f_new = _sparse_step(
            ctx, lam_one, s_new, l1_new, ac_new, loss_new, f_new, tau_s
        )

        l_prev, s_prev = l_cur, s_cur
        l_cur, s_cur, ac_cur, loss_cur = l_new, s_new, ac_new, loss_new
        rel_decrease = (f_cur - f_new) / max(1.0, abs(f_cur))
        f_cur = min(f_new, f_cur)
        trace.append(f_cur)

        if momentum_step and rel_decrease <= 0.0:
            # an extrapolated step that merely ties is no sign of
            # stationarity: drop the momentum and retry from here
            t_mom = 1.0
            continue

        t_mom_prev = t_mom
        t_mom = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))

        if rel_decrease < cfg.tol:  # tiny negatives are fp noise at stationarity
            converged = True
            break

    return EstimateResult(
        l_hat=l_cur,
        s_hat=s_cur,
        a_hat=l_cur + s_cur,
        objective_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class OptimalityReport:
    """First-order-condition residuals at a solver output.

    Residuals measure, in the dual norm of each penalty, how far the negated
    gradient is from the scaled subdifferential at the returned point;
    normalized by the penalty level, so 0 is exact stationarity.  With a zero
    penalty level the raw dual norm of the gradient is reported instead.
    Passes when both residuals are at most _CERT_TOL.
    """

    nuclear_residual: float
    l1_residual: float
    passes: bool


def check_optimality(
    ctx: ContrastContext, result: EstimateResult, lambdas: tuple
) -> OptimalityReport:
    lam_star, lam_one = float(lambdas[0]), float(lambdas[1])
    g = gradient(ctx, result.a_hat)

    # nuclear-norm block
    if lam_star > 0:
        target = -g / lam_star
        u, sig, vt = np.linalg.svd(result.l_hat, full_matrices=False)
        rank = int(np.sum(sig > _RANK_TOL * sig[0])) if sig.size and sig[0] > 0 else 0
        if rank == 0:
            nuc_res = max(0.0, operator_norm(target) - 1.0)
        else:
            u_r, vt_r = u[:, :rank], vt[:rank, :]
            pu = u_r @ u_r.T
            pv = vt_r.T @ vt_r
            tangent = pu @ target + target @ pv - pu @ target @ pv
            ortho = target - tangent
            nuc_res = operator_norm(tangent - u_r @ vt_r) + max(
                0.0, operator_norm(ortho) - 1.0
            )
    else:
        nuc_res = operator_norm(g)

    # l1 block
    if lam_one > 0:
        target = -g / lam_one
        on = np.abs(result.s_hat) > 0
        res_mat = np.where(
            on,
            np.abs(target - np.sign(result.s_hat)),
            np.maximum(np.abs(target) - 1.0, 0.0),
        )
        l1_res = float(np.max(res_mat)) if res_mat.size else 0.0
    else:
        l1_res = linf_norm(g)

    return OptimalityReport(
        nuclear_residual=float(nuc_res),
        l1_residual=float(l1_res),
        passes=bool(nuc_res <= _CERT_TOL and l1_res <= _CERT_TOL),
    )
