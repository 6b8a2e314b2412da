import numpy as np
import pytest

from oudrift.matrix_ops import (
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
    singular_value_threshold,
    soft_threshold,
    _singular_value_threshold,
)
from oudrift.solver import _prox_step


def random_tangent(d, r, n_support, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, r)))
    cells = [(i, j) for i in range(d) for j in range(d)]
    idx = rng.choice(len(cells), size=n_support, replace=False)
    return TangentSpaces(u0=q, v0=q2, support=frozenset(cells[i] for i in idx))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])


def test_nuclear_norm_examples():
    assert nuclear_norm(np.diag([3.0, 1.0])) == pytest.approx(4.0)
    u = np.array([[0.6], [0.8]])
    v = np.array([[1.0], [0.0]])
    assert nuclear_norm(u @ v.T) == pytest.approx(1.0)
    # singular values of the all-ones 2x2 matrix are (2, 0)
    assert nuclear_norm([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(2.0)


def test_operator_norm_examples():
    assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    assert operator_norm(np.eye(7)) == pytest.approx(1.0)
    assert operator_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0)


def test_entrywise_norms_examples():
    m = [[1.0, -2.0], [0.0, 3.0]]
    assert l1_norm(m) == pytest.approx(6.0)
    assert linf_norm(m) == pytest.approx(3.0)
    assert l1_norm(np.zeros((2, 2))) == 0.0
    assert linf_norm(np.zeros((2, 2))) == 0.0
    assert l1_norm(np.eye(4)) == pytest.approx(4.0)
    assert linf_norm(np.eye(4)) == pytest.approx(1.0)


def test_duality_sanity_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        m = rng.standard_normal((d, d))
        n = rng.standard_normal((d, d))
        inner = float(np.trace(m.T @ n))
        assert inner <= operator_norm(m) * nuclear_norm(n) + 1e-10
        assert inner <= linf_norm(m) * l1_norm(n) + 1e-10


def test_project_tl_keeps_first_row_and_column():
    ts = TangentSpaces(
        u0=np.array([[1.0], [0.0]]), v0=np.array([[1.0], [0.0]]), support=frozenset()
    )
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(project_tl(ts, m), [[1.0, 2.0], [3.0, 0.0]])


def test_project_tl_idempotent_on_tangent_elements():
    rng = np.random.default_rng(2)
    ts = random_tangent(5, 2, 0, rng)
    u = rng.standard_normal((5, 2))
    v = rng.standard_normal((5, 2))
    m = u @ ts.v0.T + ts.u0 @ v.T
    np.testing.assert_allclose(project_tl(ts, m), m, atol=1e-10)


def test_projectors_idempotent_self_adjoint_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ts = random_tangent(5, 2, 6, rng)
        m = rng.standard_normal((5, 5))
        n = rng.standard_normal((5, 5))
        for proj in (project_tl, project_ts):
            pm = proj(ts, m)
            assert np.linalg.norm(proj(ts, pm) - pm) <= 1e-10
            assert abs(np.sum(pm * n) - np.sum(m * proj(ts, n))) <= 1e-10
        # residual is orthogonal to the projection
        pm = project_tl(ts, m)
        assert abs(np.sum(pm * (m - pm))) <= 1e-10


def test_project_ts_examples():
    ts = TangentSpaces(
        u0=np.zeros((2, 0)), v0=np.zeros((2, 0)), support=frozenset({(0, 0)})
    )
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(project_ts(ts, m), [[1.0, 0.0], [0.0, 0.0]])
    full = TangentSpaces(
        u0=np.zeros((2, 0)),
        v0=np.zeros((2, 0)),
        support=frozenset((i, j) for i in range(2) for j in range(2)),
    )
    np.testing.assert_allclose(project_ts(full, m), m)
    empty = TangentSpaces(u0=np.zeros((2, 0)), v0=np.zeros((2, 0)), support=frozenset())
    np.testing.assert_allclose(project_ts(empty, m), np.zeros((2, 2)))
    np.testing.assert_allclose(project_ts_perp(empty, m), m)


def test_tangent_space_validation():
    with pytest.raises(ValueError):
        TangentSpaces(u0=np.ones((3, 2)), v0=np.ones((3, 2)), support=frozenset())
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))
    with pytest.raises(ValueError):
        TangentSpaces(u0=q, v0=q, support=frozenset({(5, 0)}))


def test_soft_threshold_examples():
    m = np.array([[3.0, -1.0], [0.5, -2.0]])
    np.testing.assert_allclose(soft_threshold(m, 1.0), [[2.0, 0.0], [0.0, -1.0]])
    np.testing.assert_allclose(soft_threshold(m, 0.0), m)
    np.testing.assert_allclose(soft_threshold([[0.2]], 0.5), [[0.0]])
    with pytest.raises(ValueError):
        soft_threshold(m, -0.1)


def test_soft_threshold_subgradient_condition():
    rng = np.random.default_rng(4)
    for _ in range(25):
        m = rng.standard_normal((4, 4))
        lam = float(rng.uniform(0.1, 1.0))
        x = soft_threshold(m, lam)
        resid = m - x
        on = np.abs(x) > 0
        assert np.max(np.abs(resid[on] - lam * np.sign(x[on])), initial=0.0) <= 1e-10
        assert np.max(np.abs(resid[~on]), initial=0.0) <= lam + 1e-10


def test_singular_value_threshold_examples():
    np.testing.assert_allclose(
        singular_value_threshold(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12
    )
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    np.testing.assert_allclose(singular_value_threshold(m, 0.0), m, atol=1e-10)
    with pytest.raises(ValueError):
        singular_value_threshold(m, -1.0)


def test_singular_value_threshold_minimizes_prox_objective():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((4, 4))
    lam = 0.3
    x = singular_value_threshold(m, lam)
    obj = 0.5 * np.linalg.norm(x - m) ** 2 + lam * nuclear_norm(x)
    for _ in range(100):
        pert = x + 0.1 * rng.standard_normal((4, 4))
        obj_pert = 0.5 * np.linalg.norm(pert - m) ** 2 + lam * nuclear_norm(pert)
        assert obj <= obj_pert + 1e-12


def test_singular_value_threshold_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = rng.standard_normal((3, 3))
        lam = float(rng.uniform(0.05, 1.5))
        u, s, vt = np.linalg.svd(m)
        oracle = u @ np.diag(np.maximum(s - lam, 0.0)) @ vt
        assert np.max(np.abs(singular_value_threshold(m, lam) - oracle)) <= 1e-10


def test_singular_value_threshold_spectrum_is_nuclear_norm():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((6, 6))
    x, spectrum = _singular_value_threshold(m, 0.7)
    np.testing.assert_array_equal(x, singular_value_threshold(m, 0.7))
    assert float(np.sum(spectrum)) == pytest.approx(nuclear_norm(x), rel=1e-12)


def svd_threshold(m, lam):
    """Singular value thresholding through a full SVD: the oracle."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    s = np.maximum(s - lam, 0.0)
    return (u * s) @ vt, s


def stress_matrix(d, kind, rng):
    """A (d, d) matrix with a rank-deficient, clustered or widely spread spectrum."""
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if kind == "rank-deficient":
        sigma = np.where(np.arange(d) < max(1, d // 3), rng.uniform(0.5, 2.0, d), 0.0)
    elif kind == "clustered":  # a few levels, each repeated to ~1e-9 relative
        sigma = rng.choice(rng.uniform(0.1, 2.0, 3), d) * (1.0 + 1e-9 * rng.standard_normal(d))
    else:  # condition numbers up to 1e8
        sigma = 10.0 ** rng.uniform(-8.0, 0.0, d)
    return (u * sigma) @ v.T


@pytest.mark.parametrize("d", [2, 5, 20, 60])
@pytest.mark.parametrize("kind", ["rank-deficient", "clustered", "spread"])
def test_singular_value_threshold_matches_svd_oracle(d, kind):
    rng = np.random.default_rng(1000 + d)
    for _ in range(20):
        m = stress_matrix(d, kind, rng)
        sigma_max = operator_norm(m)
        lam = sigma_max * 10.0 ** rng.uniform(-4.0, 0.0)
        x, spectrum = _singular_value_threshold(m, lam)
        want, want_spectrum = svd_threshold(m, lam)
        assert np.max(np.abs(x - want)) <= 1e-9 * sigma_max
        assert np.max(np.abs(spectrum - want_spectrum)) <= 1e-9 * sigma_max
        assert numerical_rank(x) == numerical_rank(want)

        # the solver's step runs the unchecked kernels on z = pt - tau g;
        # it equals the public operators bit for bit at levels keeping no,
        # some and every singular value
        g, tau = m.T, 0.5
        z = m - tau * g
        sig = np.linalg.svd(z, compute_uv=False)
        for level in (2.0 * sig[0], 0.5 * (sig[0] + sig[-1]), 0.0):
            lam_pt = level / tau
            l_new, s_new, nuc = _prox_step(m, m, g, tau, lam_pt, lam_pt)
            np.testing.assert_array_equal(l_new, singular_value_threshold(z, tau * lam_pt))
            np.testing.assert_array_equal(s_new, soft_threshold(z, tau * lam_pt))
            assert nuc == pytest.approx(nuclear_norm(l_new), rel=0.0, abs=d * 1e-9 * sig[0])


@pytest.mark.parametrize("shape", [(1, 5), (3, 7), (7, 3), (20, 60), (60, 20)])
def test_singular_value_threshold_non_square(shape):
    m = np.random.default_rng(11).standard_normal(shape)
    lam = 0.3 * operator_norm(m)
    x, spectrum = _singular_value_threshold(m, lam)
    want, want_spectrum = svd_threshold(m, lam)
    assert x.shape == shape
    assert spectrum.shape == (min(shape),)
    assert np.all(np.diff(spectrum) <= 0.0)
    np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-12 * operator_norm(m))
    np.testing.assert_allclose(spectrum, want_spectrum, rtol=0.0, atol=1e-12 * operator_norm(m))


@pytest.mark.parametrize("shape", [(2, 2), (60, 60), (4, 9), (9, 4)])
def test_singular_value_threshold_zero_level_and_zero_matrix(shape):
    m = np.random.default_rng(12).standard_normal(shape)
    x, spectrum = _singular_value_threshold(m, 0.0)
    np.testing.assert_allclose(x, m, rtol=0.0, atol=1e-12 * operator_norm(m))
    np.testing.assert_allclose(spectrum, np.linalg.svd(m, compute_uv=False), rtol=1e-12)
    for lam in (0.0, 1.0):
        x, spectrum = _singular_value_threshold(np.zeros(shape), lam)
        np.testing.assert_array_equal(x, np.zeros(shape))
        np.testing.assert_array_equal(spectrum, np.zeros(min(shape)))


@pytest.mark.parametrize("prox", [soft_threshold, singular_value_threshold])
@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_prox_rejects_nonfinite_level(prox, lam):
    # unchecked, a NaN level would give all-NaN and an infinite one all zeros
    with pytest.raises(ValueError, match="finite"):
        prox(np.eye(3), lam)


def test_nuclear_decomposability_inequality():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d, r = 6, 2
        ts = random_tangent(d, r, 8, rng)
        l0 = ts.u0 @ np.diag(rng.uniform(0.5, 2.0, r)) @ ts.v0.T
        delta = rng.standard_normal((d, d))
        lhs = nuclear_norm(l0 + delta) - nuclear_norm(l0)
        rhs = nuclear_norm(project_tl_perp(ts, delta)) - nuclear_norm(project_tl(ts, delta))
        assert lhs >= rhs - 1e-9


def test_l1_decomposability_inequality():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = 6
        ts = random_tangent(d, 1, 7, rng)
        s0 = project_ts(ts, rng.standard_normal((d, d)))
        delta = rng.standard_normal((d, d))
        lhs = l1_norm(s0 + delta) - l1_norm(s0)
        rhs = l1_norm(project_ts_perp(ts, delta)) - l1_norm(project_ts(ts, delta))
        assert lhs >= rhs - 1e-9


def test_numerical_rank():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(3)) == 3
    m = np.diag([1.0, 1e-12, 0.0])
    assert numerical_rank(m) == 1
