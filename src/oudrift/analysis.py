"""Certificates and diagnostics: error cone, dual bounds, curvature, metrics.

These checks mirror, at finite sample size, the conditions under which the
penalized estimator admits a risk bound: the estimation error should fall in
a cone where tangent components dominate (factor 4), the contrast gradient
at the truth should sit below half the penalty levels in the matching dual
norms, and the truncated empirical covariance should keep a positive
eigenvalue floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .contrast import ContrastContext, gradient
from .matrix_ops import (
    _DENOM_TOL,
    _SUPPORT_TOL,
    TangentSpaces,
    as_matrix,
    l1_norm,
    linf_norm,
    nuclear_norm,
    numerical_rank,
    operator_norm,
    project_tl,
    project_tl_perp,
    project_ts,
    project_ts_perp,
)
from .models import DriftModel
from .solver import EstimateResult

__all__ = [
    "CONE_CONSTANT",
    "ConeReport",
    "DualBoundReport",
    "RscReport",
    "ErrorMetrics",
    "OracleFitReport",
    "cone_membership",
    "verify_dual_bounds",
    "verify_rsc",
    "compute_error_metrics",
    "oracle_bound_compare",
    "linear_fit",
]

CONE_CONSTANT = 4.0


@dataclass(frozen=True)
class ConeReport:
    """Off-tangent/tangent norm ratios of an error split; inf when the
    tangent part vanishes while the off-tangent part does not."""

    lowrank_ratio: float
    sparse_ratio: float
    in_cone: bool


@dataclass(frozen=True)
class DualBoundReport:
    grad_op_norm: float
    grad_inf_norm: float
    op_pass: bool
    inf_pass: bool


@dataclass(frozen=True)
class RscReport:
    """Eigenvalue floor of the truncated empirical covariance versus a
    reference proxy; passes when the floor keeps half the proxy level.
    Without a reference both c_b_proxy and passes are None (unknown)."""

    min_eig_cn: float
    c_b_proxy: Optional[float]
    passes: Optional[bool]


@dataclass(frozen=True)
class ErrorMetrics:
    frob_err_sq: float
    rank_l_hat: int
    support_precision: float
    support_recall: float


def _ratio(num: float, den: float) -> float:
    if num <= _DENOM_TOL:
        return 0.0
    if den <= _DENOM_TOL:
        return float("inf")
    return num / den


def cone_membership(ts: TangentSpaces, delta_l, delta_s) -> ConeReport:
    """Check the error split against the factor-4 tangent-dominance cone."""
    delta_l = as_matrix(delta_l)
    delta_s = as_matrix(delta_s)
    low = _ratio(
        nuclear_norm(project_tl_perp(ts, delta_l)),
        nuclear_norm(project_tl(ts, delta_l)),
    )
    sp = _ratio(
        l1_norm(project_ts_perp(ts, delta_s)),
        l1_norm(project_ts(ts, delta_s)),
    )
    return ConeReport(
        lowrank_ratio=low,
        sparse_ratio=sp,
        in_cone=bool(low <= CONE_CONSTANT and sp <= CONE_CONSTANT),
    )


def verify_dual_bounds(
    ctx: ContrastContext, model: DriftModel, lambdas: tuple
) -> DualBoundReport:
    """Dual norms of the contrast gradient at the true drift versus the
    half-penalty thresholds."""
    lam_star, lam_one = float(lambdas[0]), float(lambdas[1])
    g = gradient(ctx, model.a0)
    g_op = operator_norm(g)
    g_inf = linf_norm(g)
    return DualBoundReport(
        grad_op_norm=g_op,
        grad_inf_norm=g_inf,
        op_pass=bool(g_op <= lam_star / 2.0),
        inf_pass=bool(g_inf <= lam_one / 2.0),
    )


def verify_rsc(
    ctx: ContrastContext, reference_cov: Optional[np.ndarray] = None
) -> RscReport:
    """Eigenvalue floor of c_n; the unrestricted bound implies the
    cone-restricted one.  Without a reference covariance there is nothing to
    compare the floor to: the report states the floor and passes is None."""
    min_eig = float(ctx.c_n_eigvals[0])
    if reference_cov is None:
        return RscReport(min_eig_cn=min_eig, c_b_proxy=None, passes=None)
    c_b = float(np.linalg.eigvalsh(as_matrix(reference_cov))[0])
    return RscReport(
        min_eig_cn=min_eig,
        c_b_proxy=c_b,
        passes=bool(min_eig >= c_b / 2.0),
    )


def compute_error_metrics(model: DriftModel, result: EstimateResult) -> ErrorMetrics:
    """Frobenius risk plus structure-recovery diagnostics.

    Support precision/recall compare entries of the sparse estimate above
    _SUPPORT_TOL with the true support; empty/empty cases count as 1.
    """
    diff = result.a_hat - model.a0
    frob_err_sq = float(np.sum(diff * diff))
    rank_l = numerical_rank(result.l_hat)
    est_supp = np.abs(result.s_hat) > _SUPPORT_TOL
    true_supp = model.tangent.support_mask()
    n_est = int(est_supp.sum())
    n_true = int(true_supp.sum())
    n_hit = int((est_supp & true_supp).sum())
    precision = n_hit / n_est if n_est > 0 else 1.0
    recall = n_hit / n_true if n_true > 0 else 1.0
    return ErrorMetrics(
        frob_err_sq=frob_err_sq,
        rank_l_hat=rank_l,
        support_precision=float(precision),
        support_recall=float(recall),
    )


def linear_fit(x, y) -> tuple:
    """Least-squares line y ~ intercept + slope * x; returns (slope,
    intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[1]), float(coef[0]), r2


@dataclass(frozen=True)
class OracleFitReport:
    """Fit of mean squared risk against bias + variance-rate features."""

    c1: float              # coefficient of the d^2 delta_n^2 bias feature
    c2: float              # coefficient of gamma/T * (r+s) log d
    r_squared: float


def oracle_bound_compare(
    means: Sequence[float],
    d: int,
    r: int,
    s: int,
    t_list: Sequence[float],
    gamma: float,
    delta_n: float,
) -> OracleFitReport:
    """Regress mean squared risk on the two-term risk-bound shape.

    means holds the mean squared Frobenius error per horizon in t_list, and
    gamma is gamma(delta_n), one value for every horizon.  The regression
    fits

        mean_err(T) ~ c1 * d^2 delta_n^2 + c2 * gamma/T * (r+s) log d

    as a `linear_fit` on the rate feature: at one mesh the bias feature is
    constant, so c1 is the intercept over (d delta_n)^2 and cannot be told
    apart from any other constant.
    """
    t_arr = [float(t) for t in t_list]
    if len(set(t_arr)) < 3:
        raise ValueError("need at least 3 distinct horizons")
    if len(means) != len(t_arr):
        raise ValueError("means and t_list must align")
    rate_feature = [gamma / t * (r + s) * np.log(d) for t in t_arr]
    c2, intercept, r2 = linear_fit(rate_feature, means)
    return OracleFitReport(c1=intercept / (d * delta_n) ** 2, c2=c2, r_squared=r2)
