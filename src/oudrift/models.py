"""Ground-truth drift construction and stationary-covariance utilities.

A drift matrix is built as A0 = L0 + S0 where L0 is a random rank-r factor
product and S0 holds s random bounded off-diagonal entries.  Mean reversion
(all eigenvalues of A0 with positive real part) is enforced by a diagonal
shift; a strictly rank-r plus off-diagonal-sparse matrix with r + s < d is
singular, so the shift is unavoidable.  It is carried on the diagonal of the
sparse part, which keeps the low-rank factors and their tangent space exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrix_ops import (
    _DENOM_TOL,
    TangentSpaces,
    as_matrix,
    l1_norm,
    nuclear_norm,
    numerical_rank,
    project_tl,
    project_tl_perp,
    project_ts_perp,
)

__all__ = [
    "DriftModel",
    "IncoherenceReport",
    "GenerationError",
    "generate_drift",
    "estimate_incoherence",
    "lyapunov_stationary_cov",
]


class GenerationError(RuntimeError):
    """Raised when no stable drift could be produced."""


@dataclass(frozen=True)
class DriftModel:
    """Ground-truth triple (A0 = L0 + S0) with structure metadata.

    `r` bounds the rank of l0; `s` bounds the nonzero count of s0 and includes
    the stabilizing diagonal entries.  `stability_margin` is the smallest real
    part over the eigenvalues of a0.
    """

    d: int
    r: int
    s: int
    l0: np.ndarray
    s0: np.ndarray
    a0: np.ndarray
    tangent: TangentSpaces
    stability_margin: float
    seed: Optional[int] = None

    def __post_init__(self):
        l0 = as_matrix(self.l0)
        s0 = as_matrix(self.s0)
        a0 = as_matrix(self.a0)
        object.__setattr__(self, "l0", l0)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "a0", a0)
        d = self.d
        for name, m in (("l0", l0), ("s0", s0), ("a0", a0)):
            if m.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}, got {m.shape}")
        if numerical_rank(l0) > self.r:
            raise ValueError("rank of l0 exceeds the bound r")
        if int(np.count_nonzero(s0)) > self.s:
            raise ValueError("nonzero count of s0 exceeds the bound s")
        if not np.array_equal(a0, l0 + s0):
            raise ValueError("a0 != l0 + s0")
        margin = float(np.min(np.linalg.eigvals(a0).real))
        if margin <= 0.0:
            raise ValueError(f"a0 is not stable (min real eigenvalue {margin:.3g})")
        if abs(margin - self.stability_margin) > 1e-8 * max(1.0, abs(margin)):
            raise ValueError("stability_margin does not match eigenvalues of a0")


@dataclass(frozen=True)
class IncoherenceReport:
    """Sampled lower bounds for the tangent-space overlap constants.

    Both estimates are maxima over finite test sets, hence lower bounds on
    the true suprema; `passes` applies the sum-below-one criterion to them
    (vacuously true when the low-rank part is absent).
    """

    xi_l_est: float
    xi_s_est: float
    passes: bool


# Diagonal shifts `generate_drift` tries, each half a spectral floor above the
# last, before it raises GenerationError.
_SHIFT_MAX_ATTEMPTS = 100
# Range of the magnitudes of S0's off-diagonal entries.
_SPARSE_MAGNITUDE = (0.3, 1.0)


def generate_drift(
    d: int,
    r: int,
    s: int,
    seed: int = 0,
    spectral_floor: float = 0.1,
    lowrank_scale: float = 1.0,
) -> DriftModel:
    """Construct a stable drift A0 = L0 + S0 with rank(L0) <= r.

    L0 is a product of random orthonormal factors with a positive spectrum of
    scale `lowrank_scale`; S0 holds `s` off-diagonal entries with magnitudes
    in _SPARSE_MAGNITUDE plus the diagonal shift that makes every eigenvalue
    of A0 have real part >= spectral_floor.  Deterministic given `seed`.
    """
    if not (0 <= r <= d):
        raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
    if not (0 <= s <= d * d):
        raise ValueError(f"need 0 <= s <= d^2, got s={s}")
    if spectral_floor <= 0:
        raise ValueError("spectral_floor must be positive")
    rng = np.random.default_rng(seed)

    if r > 0:
        q, _ = np.linalg.qr(rng.standard_normal((d, r)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, r)))
        spectrum = np.sort(lowrank_scale * rng.uniform(0.5, 1.5, size=r))[::-1]
        l0 = (q * spectrum) @ q2.T
    else:
        q = np.zeros((d, 0))
        q2 = np.zeros((d, 0))
        l0 = np.zeros((d, d))

    # off-diagonal position k, in row-major order, is row i = k // (d - 1)
    # and column j' = k % (d - 1), skipping the diagonal: j = j' + (j' >= i)
    n_off = min(s, d * (d - 1))
    s0 = np.zeros((d, d))
    if n_off > 0:
        chosen = rng.choice(d * (d - 1), size=n_off, replace=False)
        lo, hi = _SPARSE_MAGNITUDE
        for idx in chosen:
            i, j = divmod(int(idx), d - 1)
            s0[i, j + (j >= i)] = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])

    base = l0 + s0
    min_real = float(np.min(np.linalg.eigvals(base).real)) if d > 0 else 0.0
    shift = max(spectral_floor - min_real, 0.0)
    for _ in range(_SHIFT_MAX_ATTEMPTS):
        a0 = base + shift * np.eye(d)
        margin = float(np.min(np.linalg.eigvals(a0).real))
        if margin >= spectral_floor * (1.0 - 1e-9):
            break
        shift += 0.5 * spectral_floor
    else:
        raise GenerationError(
            f"no stable drift after {_SHIFT_MAX_ATTEMPTS} attempts (last shift {shift:.3g})"
        )

    # l0 + s0 below equals the last candidate a0 bit for bit: s0's diagonal
    # is zero before the shift, so both add shift to l0's diagonal once
    if shift > 0.0:
        s0 = s0 + shift * np.eye(d)
    a0 = l0 + s0
    support = frozenset(zip(*np.nonzero(s0)))
    tangent = TangentSpaces(u0=q, v0=q2, support=support)
    return DriftModel(
        d=d,
        r=r,
        s=int(np.count_nonzero(s0)),
        l0=l0,
        s0=s0,
        a0=a0,
        tangent=tangent,
        stability_margin=margin,
        seed=seed,
    )


def _basis_ratios_lowrank(ts: TangentSpaces) -> list:
    """Nuclear-norm leakage ratios of the sparse-support basis matrices."""
    ratios = []
    d = ts.dim
    for i, j in sorted(ts.support):
        m = np.zeros((d, d))
        m[i, j] = 1.0
        ratios.append(nuclear_norm(project_tl_perp(ts, m)))  # ||m||_* = 1
    return ratios


def estimate_incoherence(
    model: DriftModel, n_samples: int = 200, seed: int = 0
) -> IncoherenceReport:
    """Sampled lower bounds for the tangent-overlap constants of the model.

    The low-rank constant is maximized over all sparse-support basis matrices
    plus `n_samples` random support-restricted matrices; the sparse constant
    over the low-rank tangent images of all basis matrices plus `n_samples`
    random tangent elements.  Samples are drawn sequentially, so estimates
    are non-decreasing in `n_samples` at fixed seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    ts = model.tangent
    d = ts.dim
    # Two independent streams so estimates are non-decreasing in n_samples.
    stream_l, stream_s = np.random.SeedSequence(seed).spawn(2)
    rng_l = np.random.default_rng(stream_l)
    rng_s = np.random.default_rng(stream_s)

    if ts.rank == 0:
        # No low-rank part: the split is trivially identifiable.
        return IncoherenceReport(0.0, 0.0, True)

    support = sorted(ts.support)
    xi_l = 0.0
    if support:
        xi_l = max(_basis_ratios_lowrank(ts))
        for _ in range(n_samples):
            m = np.zeros((d, d))
            for i, j in support:
                m[i, j] = rng_l.standard_normal()
            denom = nuclear_norm(m)
            if denom > _DENOM_TOL:
                xi_l = max(xi_l, nuclear_norm(project_tl_perp(ts, m)) / denom)

    xi_s = 0.0
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d))
            m[i, j] = 1.0
            n = project_tl(ts, m)
            denom = l1_norm(n)
            if denom > _DENOM_TOL:
                xi_s = max(xi_s, l1_norm(project_ts_perp(ts, n)) / denom)
    for _ in range(n_samples):
        n = rng_s.standard_normal((d, ts.rank)) @ ts.v0.T + ts.u0 @ rng_s.standard_normal((d, ts.rank)).T
        denom = l1_norm(n)
        if denom > _DENOM_TOL:
            xi_s = max(xi_s, l1_norm(project_ts_perp(ts, n)) / denom)

    return IncoherenceReport(
        xi_l_est=float(xi_l),
        xi_s_est=float(xi_s),
        passes=bool(xi_l + xi_s < 1.0),
    )


_LYAPUNOV_MAX_ITERS = 100
_LYAPUNOV_TOL = 1e-12


def lyapunov_stationary_cov(a0, sigma_z) -> np.ndarray:
    """Solve a0 C + C a0^T = sigma_z for the stationary covariance C.

    Scaled Newton iteration for the matrix sign function (Roberts 1971, with
    Byers' determinant scaling): from X = a0, Y = sigma_z, repeat

        c = |det X|^(-1/d),  X <- (c X + X^-1 / c) / 2,
                             Y <- (c Y + X^-1 Y X^-T / c) / 2

    until X has converged to sign(a0) = I; then C = Y / 2.  Each step costs
    one inverse and a few d x d products, O(d^3), and needs no eigenvectors,
    so non-normal drifts are safe.  Convergence is quadratic once close:
    about 7 steps on generated drifts, more as the stability margin shrinks.
    `sigma_z` is the instantaneous covariance of the driving noise.
    """
    a0 = as_matrix(a0)
    sigma_z = as_matrix(sigma_z)
    d = a0.shape[0]
    if a0.shape != (d, d) or sigma_z.shape != (d, d):
        raise ValueError("a0 and sigma_z must be square with matching shapes")
    eigs = np.linalg.eigvals(a0)
    if np.min(eigs.real) <= 0:
        raise ValueError("a0 is not stable; no stationary covariance exists")
    x, y = a0, sigma_z
    for _ in range(_LYAPUNOV_MAX_ITERS):
        x_inv = np.linalg.inv(x)
        c = math.exp(-np.linalg.slogdet(x)[1] / d)
        x_next = 0.5 * (c * x + x_inv / c)
        y = 0.5 * (c * y + (x_inv @ y @ x_inv.T) / c)
        step = np.linalg.norm(x_next - x, 1) / np.linalg.norm(x_next, 1)
        x = x_next
        if step <= _LYAPUNOV_TOL:
            return (y + y.T) / 4.0
    raise RuntimeError(
        f"sign iteration did not converge in {_LYAPUNOV_MAX_ITERS} steps "
        f"(last relative step {step:.3g})"
    )
