import numpy as np
import pytest

from oudrift.matrix_ops import numerical_rank
from oudrift.models import (
    DriftModel,
    generate_drift,
    lyapunov_stationary_cov,
)


def test_generate_degenerate_pure_shift():
    # r = 0, s = 0: only the stabilizing diagonal remains
    model = generate_drift(d=2, r=0, s=0, seed=1, spectral_floor=0.5)
    np.testing.assert_allclose(model.l0, np.zeros((2, 2)))
    np.testing.assert_allclose(model.s0, 0.5 * np.eye(2))
    np.testing.assert_allclose(model.a0, 0.5 * np.eye(2))
    assert model.stability_margin == pytest.approx(0.5)


def test_generate_structure_and_stability():
    model = generate_drift(d=5, r=1, s=3, seed=7)
    assert numerical_rank(model.l0) == 1
    # 3 requested off-diagonal entries plus the stabilizing diagonal
    off = model.s0.copy()
    np.fill_diagonal(off, 0.0)
    assert np.count_nonzero(off) == 3
    eigs = np.linalg.eigvals(model.a0)
    assert np.min(eigs.real) > 0
    assert np.min(eigs.real) == pytest.approx(model.stability_margin)
    np.testing.assert_array_equal(model.a0, model.l0 + model.s0)


@pytest.mark.parametrize("d", [6, 10, 20, 60])
def test_generate_margin_is_the_final_drifts_exactly(d):
    # the margin is taken from the stability loop's last candidate, which is a0
    for seed in range(5):
        model = generate_drift(d=d, r=2, s=d, seed=seed)
        assert model.stability_margin == float(np.min(np.linalg.eigvals(model.a0).real))


def _sparse_offdiag_by_enumeration(d, r, s, seed):
    """generate_drift's sparse draws replayed on the list of off-diagonal
    positions: the reference for its index arithmetic."""
    rng = np.random.default_rng(seed)
    if r > 0:  # the low-rank part's draws come first
        rng.standard_normal((d, r))
        rng.standard_normal((d, r))
        rng.uniform(0.5, 1.5, size=r)
    off_positions = [(i, j) for i in range(d) for j in range(d) if i != j]
    n_off = min(s, len(off_positions))
    out = np.zeros((d, d))
    if n_off > 0:
        for idx in rng.choice(len(off_positions), size=n_off, replace=False):
            i, j = off_positions[idx]
            out[i, j] = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
    return out


@pytest.mark.parametrize(
    "d, r, s, seed",
    [(1, 0, 1, 0), (2, 0, 2, 1), (4, 1, 12, 5), (5, 1, 3, 7), (20, 2, 20, 3), (60, 2, 60, 11)],
)
def test_generate_sparse_positions_match_the_enumeration(d, r, s, seed):
    model = generate_drift(d=d, r=r, s=s, seed=seed)
    off = model.s0.copy()
    np.fill_diagonal(off, 0.0)
    assert np.array_equal(off, _sparse_offdiag_by_enumeration(d, r, s, seed))


def test_generate_full_rank_full_support_accepted():
    model = generate_drift(d=3, r=3, s=9, seed=3)
    assert numerical_rank(model.l0) <= 3
    assert np.count_nonzero(model.s0) <= 9
    assert model.stability_margin > 0


def test_generate_deterministic_bit_identical():
    a = generate_drift(d=6, r=2, s=5, seed=42)
    b = generate_drift(d=6, r=2, s=5, seed=42)
    assert np.array_equal(a.a0, b.a0)
    assert np.array_equal(a.l0, b.l0)
    assert a.tangent.support == b.tangent.support
    c = generate_drift(d=6, r=2, s=5, seed=43)
    assert not np.array_equal(a.a0, c.a0)


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generate_drift(d=3, r=4, s=0)
    with pytest.raises(ValueError):
        generate_drift(d=3, r=1, s=10)
    with pytest.raises(ValueError):
        generate_drift(d=3, r=1, s=1, spectral_floor=0.0)


def test_drift_model_invariant_checks():
    model = generate_drift(d=4, r=1, s=2, seed=0)
    with pytest.raises(ValueError):
        DriftModel(
            d=4, r=0, s=model.s, l0=model.l0, s0=model.s0, a0=model.a0,
            tangent=model.tangent, stability_margin=model.stability_margin,
        )
    with pytest.raises(ValueError):
        DriftModel(
            d=4, r=model.r, s=model.s, l0=model.l0, s0=model.s0,
            a0=model.a0 + 1e-3, tangent=model.tangent,
            stability_margin=model.stability_margin,
        )


def test_lyapunov_scalar_balance():
    d = 3
    c = lyapunov_stationary_cov(2.0 * np.eye(d), 4.0 * np.eye(d))
    np.testing.assert_allclose(c, np.eye(d), atol=1e-12)


def test_lyapunov_decoupled_diagonal():
    c = lyapunov_stationary_cov(np.diag([1.0, 2.0]), np.eye(2))
    np.testing.assert_allclose(c, np.diag([0.5, 0.25]), atol=1e-12)


def test_lyapunov_residual_and_psd():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
    sig_fac = rng.standard_normal((6, 6))
    sigma = sig_fac @ sig_fac.T
    c = lyapunov_stationary_cov(a, sigma)
    resid = np.linalg.norm(a @ c + c @ a.T - sigma)
    assert resid <= 1e-10
    np.testing.assert_allclose(c, c.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(c)) >= -1e-10


def test_lyapunov_rejects_unstable():
    with pytest.raises(ValueError):
        lyapunov_stationary_cov(-np.eye(2), np.eye(2))


def _kronecker_lyapunov(a, sigma):
    """Oracle: the d^2 x d^2 vectorized balance (I kron A + A kron I) vec C = vec sigma."""
    d = a.shape[0]
    eye = np.eye(d)
    k = np.kron(eye, a) + np.kron(a, eye)  # column-major vec convention
    c = np.linalg.solve(k, sigma.flatten(order="F")).reshape((d, d), order="F")
    return (c + c.T) / 2.0


def _shifted_to_margin(m, margin):
    return m + (margin - np.min(np.linalg.eigvals(m).real)) * np.eye(m.shape[0])


def _lyapunov_case(name):
    rng = np.random.default_rng(31)
    if name == "random":
        d = 30
        a = _shifted_to_margin(rng.standard_normal((d, d)), 0.5)
    elif name == "small_margin":
        d = 30
        a = _shifted_to_margin(rng.standard_normal((d, d)), 0.01)
    else:  # strongly non-normal: rotated upper-triangular, eigenvector condition ~1e4
        d = 12
        t = np.triu(rng.standard_normal((d, d)), 1) + np.diag(np.linspace(0.5, 2.0, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = q @ t @ q.T
    f = rng.standard_normal((d, d))
    return a, f @ f.T


@pytest.mark.parametrize("name", ["random", "small_margin", "non_normal"])
def test_lyapunov_matches_kronecker_oracle(name):
    a, sigma = _lyapunov_case(name)
    if name == "non_normal":
        assert np.linalg.cond(np.linalg.eig(a)[1]) > 1e3
    c = lyapunov_stationary_cov(a, sigma)
    oracle = _kronecker_lyapunov(a, sigma)
    assert np.linalg.norm(c - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_lyapunov_d120_generated_drift():
    # the Kronecker system at this size would be a 14400 x 14400 matrix (1.7 GB)
    model = generate_drift(d=120, r=2, s=120, seed=3, spectral_floor=0.5)
    sigma = 0.25 * np.eye(120) + 0.02 * np.ones((120, 120))
    c = lyapunov_stationary_cov(model.a0, sigma)
    resid = np.linalg.norm(model.a0 @ c + c @ model.a0.T - sigma) / np.linalg.norm(sigma)
    assert resid <= 1e-10
    np.testing.assert_array_equal(c, c.T)
    assert np.min(np.linalg.eigvalsh(c)) >= 0.0
