"""Dense-matrix primitives: norms, SVD, tangent-space projections, prox operators.

Everything operates on plain 2-D float ndarrays.  Tangent spaces for the
low-rank-plus-sparse geometry are described by orthonormal factor bases
(for the low-rank part) and an index support set (for the sparse part).
Each prox operator is a validating public wrapper (level check, then
`as_matrix`) around an unchecked kernel that holds its math; the solver,
which keeps its iterates finite by checking their loss, calls the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TangentSpaces",
    "as_matrix",
    "nuclear_norm",
    "operator_norm",
    "l1_norm",
    "linf_norm",
    "numerical_rank",
    "project_tl",
    "project_tl_perp",
    "project_ts",
    "project_ts_perp",
    "soft_threshold",
    "singular_value_threshold",
]


# Numeric tolerances shared across the package.
_ORTH_TOL = 1e-10     # orthonormality of tangent factor bases
_RANK_TOL = 1e-8      # sigma_i counted nonzero if > _RANK_TOL * sigma_max
_CERT_TOL = 1e-4      # solver first-order-condition residuals
_SUPPORT_TOL = 1e-6   # entry magnitude counted as nonzero support
_DENOM_TOL = 1e-14    # ratio denominators flagged as degenerate below this


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def nuclear_norm(m) -> float:
    """Sum of singular values."""
    m = as_matrix(m)
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def operator_norm(m) -> float:
    """Largest singular value."""
    m = as_matrix(m)
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def l1_norm(m) -> float:
    """Entry-wise sum of absolute values."""
    m = as_matrix(m)
    return float(np.sum(np.abs(m)))


def linf_norm(m) -> float:
    """Entry-wise maximum absolute value."""
    m = as_matrix(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def numerical_rank(m) -> int:
    """Number of singular values above _RANK_TOL * sigma_max."""
    s = np.linalg.svd(as_matrix(m), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > _RANK_TOL * s[0]))


@dataclass(frozen=True)
class TangentSpaces:
    """Tangent-space data at a low-rank-plus-sparse decomposition.

    u0, v0 : (d, r) orthonormal column bases of the row/column spaces of the
        low-rank part.  r = 0 is allowed (empty bases, trivial tangent space).
    support : index pairs (row, col) carrying the sparse part.
    """

    u0: np.ndarray
    v0: np.ndarray
    support: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        u0 = np.asarray(self.u0, dtype=float)
        v0 = np.asarray(self.v0, dtype=float)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "support", frozenset((int(i), int(j)) for i, j in self.support))
        if u0.ndim != 2 or v0.ndim != 2:
            raise ValueError("u0 and v0 must be 2-D")
        d, r = u0.shape
        if v0.shape != (d, r):
            raise ValueError(f"u0 and v0 shapes differ: {u0.shape} vs {v0.shape}")
        for basis, name in ((u0, "u0"), (v0, "v0")):
            gram = basis.T @ basis
            if gram.size and np.max(np.abs(gram - np.eye(r))) > _ORTH_TOL:
                raise ValueError(f"{name} columns are not orthonormal")
        for i, j in self.support:
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"support index ({i},{j}) outside [0,{d})^2")

    @property
    def dim(self) -> int:
        return self.u0.shape[0]

    @property
    def rank(self) -> int:
        return self.u0.shape[1]

    def support_mask(self) -> np.ndarray:
        mask = np.zeros((self.dim, self.dim), dtype=bool)
        for i, j in self.support:
            mask[i, j] = True
        return mask


def project_tl(ts: TangentSpaces, m) -> np.ndarray:
    """Orthogonal projection onto the low-rank tangent space.

    P(m) = Pu m + m Pv - Pu m Pv with Pu = u0 u0^T, Pv = v0 v0^T.
    """
    m = as_matrix(m)
    d = ts.dim
    if m.shape != (d, d):
        raise ValueError(f"expected {d}x{d} matrix, got {m.shape}")
    if ts.rank == 0:
        return np.zeros_like(m)
    um = ts.u0 @ (ts.u0.T @ m)
    mv = (m @ ts.v0) @ ts.v0.T
    umv = ts.u0 @ ((ts.u0.T @ m) @ ts.v0) @ ts.v0.T
    return um + mv - umv


def project_tl_perp(ts: TangentSpaces, m) -> np.ndarray:
    m = as_matrix(m)
    return m - project_tl(ts, m)


def project_ts(ts: TangentSpaces, m) -> np.ndarray:
    """Zero all entries outside the sparse support."""
    m = as_matrix(m)
    d = ts.dim
    if m.shape != (d, d):
        raise ValueError(f"expected {d}x{d} matrix, got {m.shape}")
    out = np.zeros_like(m)
    mask = ts.support_mask()
    out[mask] = m[mask]
    return out


def project_ts_perp(ts: TangentSpaces, m) -> np.ndarray:
    m = as_matrix(m)
    return m - project_ts(ts, m)


def _check_level(lam) -> None:
    """A threshold level must be a finite nonnegative number."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")


def _soft_threshold(m: np.ndarray, lam: float) -> np.ndarray:
    """soft_threshold's kernel, unchecked: m a finite 2-D float array, lam a
    finite nonnegative level.  m - clip(m, -lam, lam) equals
    sign(m) * max(|m| - lam, 0) up to the sign of zero, in two array passes
    (the method form skips np.clip's dispatch, which matters at small d)."""
    return m - m.clip(-lam, lam)


def soft_threshold(m, lam: float) -> np.ndarray:
    """Entry-wise shrinkage sign(x) * max(|x| - lam, 0); prox of lam * l1 norm."""
    _check_level(lam)
    return _soft_threshold(as_matrix(m), lam)


def _singular_value_threshold(m: np.ndarray, lam: float) -> tuple:
    """singular_value_threshold's kernel, unchecked: m a finite 2-D float
    array, lam a finite nonnegative level (a non-finite m makes eigh raise
    LinAlgError).  Returns the result and its shrunk singular values
    max(sigma - lam, 0), min(p, q) of them for a (p, q) input, in descending
    order; their sum is the nuclear norm of the result.

    Method: no SVD.  For p >= q (a wide input is transposed), the Gram
    eigendecomposition m^T m = V diag(sigma^2) V^T gives B = m V, whose
    columns b_k are orthogonal with norms sigma_k, and the result is the sum
    of w_k b_k v_k^T with weights w_k = max(sigma_k - lam, 0) / sigma_k (0
    where sigma_k = 0), one product (B * w) V^T over the columns from the
    first nonzero weight on: eigh's eigenvalues ascend, so those are the
    last columns, and the others add nothing.  Taking sigma_k as a column
    norm keeps it accurate to about eps * sigma_max; the square root of the
    eigenvalue would be accurate only to about sqrt(eps) * sigma_max.
    """
    wide = m.shape[0] < m.shape[1]
    if wide:
        m = m.T
    _, v = np.linalg.eigh(m.T @ m)
    b = m @ v
    sigma = np.sqrt(np.add.reduce(b * b, axis=0))  # np.linalg.norm's reduction
    shrunk = np.maximum(sigma - lam, 0.0)
    w = np.divide(shrunk, sigma, out=np.zeros_like(sigma), where=sigma > 0.0)
    kept = w.nonzero()[0]
    lo = kept[0] if kept.size else w.size
    out = (b[:, lo:] * w[lo:]) @ v[:, lo:].T
    if wide:
        out = out.T
    shrunk.sort()
    return out, shrunk[::-1]


def singular_value_threshold(m, lam: float) -> np.ndarray:
    """Shrink singular values by lam; prox of lam * nuclear norm.

    Computed from the Gram eigendecomposition (see the kernel,
    `_singular_value_threshold`).  Accuracy domain: for lam >= 1e-4 *
    sigma_max (the solver's thresholds sit above 2e-3 * sigma_max) the
    result matches the SVD route to about 1e-11 * sigma_max, with the same
    numerical rank, at condition numbers up to 1e8.  Far smaller thresholds
    keep directions with sigma_k below sqrt(eps) * sigma_max, which the Gram
    matrix does not resolve: there the gap reaches about 1e-8 * sigma_max
    and the numerical rank may differ.
    """
    _check_level(lam)
    return _singular_value_threshold(as_matrix(m), lam)[0]
