import numpy as np
import pytest

from oudrift.analysis import (
    cone_membership,
    compute_error_metrics,
    linear_fit,
    oracle_bound_compare,
    verify_dual_bounds,
    verify_rsc,
)
from oudrift.contrast import LocalizationConfig, build_context, localization_from_observations
from oudrift.matrix_ops import (
    TangentSpaces,
    l1_norm,
    nuclear_norm,
    numerical_rank,
    project_tl,
    project_ts,
)
from oudrift.models import generate_drift
from oudrift.simulate import LevyRegime, ObservationSet, PathConfig, simulate_path
from oudrift.solver import EstimateResult, SolverConfig, solve, tune_lambdas, TuningConfig


def random_tangent(d, r, n_support, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, r)))
    cells = [(i, j) for i in range(d) for j in range(d)]
    idx = rng.choice(len(cells), size=n_support, replace=False)
    return TangentSpaces(u0=q, v0=q2, support=frozenset(cells[i] for i in idx))


def as_result(l_hat, s_hat):
    return EstimateResult(
        l_hat=np.asarray(l_hat, dtype=float),
        s_hat=np.asarray(s_hat, dtype=float),
        a_hat=np.asarray(l_hat, dtype=float) + np.asarray(s_hat, dtype=float),
        objective_trace=np.array([0.0]),
        iterations=0,
        converged=True,
    )


def test_cone_membership_tangent_elements():
    rng = np.random.default_rng(0)
    ts = random_tangent(5, 2, 6, rng)
    delta_l = project_tl(ts, rng.standard_normal((5, 5)))
    delta_s = project_ts(ts, rng.standard_normal((5, 5)))
    rep = cone_membership(ts, delta_l, delta_s)
    assert rep.lowrank_ratio == 0.0
    assert rep.sparse_ratio == 0.0
    assert rep.in_cone


def test_cone_membership_orthogonal_element_infinite_ratio():
    rng = np.random.default_rng(1)
    ts = random_tangent(5, 1, 4, rng)
    m = rng.standard_normal((5, 5))
    delta_l = m - project_tl(ts, m)  # entirely off-tangent
    rep = cone_membership(ts, delta_l, np.zeros((5, 5)))
    assert np.isinf(rep.lowrank_ratio)
    assert not rep.in_cone


def test_cone_report_scale_invariant():
    rng = np.random.default_rng(2)
    ts = random_tangent(6, 2, 8, rng)
    dl = rng.standard_normal((6, 6))
    ds = rng.standard_normal((6, 6))
    a = cone_membership(ts, dl, ds)
    b = cone_membership(ts, 7.5 * dl, 7.5 * ds)
    assert a.lowrank_ratio == pytest.approx(b.lowrank_ratio, rel=1e-9)
    assert a.sparse_ratio == pytest.approx(b.sparse_ratio, rel=1e-9)


def test_tangent_compatibility_inequalities():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(5, 21))
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, d))
        ts = random_tangent(d, r, s, rng)
        m = rng.standard_normal((d, d))
        mt = project_tl(ts, m)
        assert numerical_rank(mt) <= 2 * r
        assert nuclear_norm(mt) <= np.sqrt(2 * r) * np.linalg.norm(mt) + 1e-9
        st = project_ts(ts, m)
        assert l1_norm(st) <= np.sqrt(s) * np.linalg.norm(st) + 1e-9


def test_verify_dual_bounds_noiseless():
    model = generate_drift(d=3, r=1, s=2, seed=4, spectral_floor=0.5)
    regime = LevyRegime(tag="continuous", sigma=None)
    cfg = PathConfig(delta_n=0.05, n_obs=30, substeps=1, burn_in_time=0.0, seed=0)
    obs = simulate_path(model, regime, cfg, x0=np.array([1.0, -0.5, 0.25]))
    ctx = build_context(obs, LocalizationConfig(radius_b=1e9, eta=1e9))
    rep = verify_dual_bounds(ctx, model, (0.1, 0.1))
    assert rep.grad_op_norm <= 1e-12
    assert rep.op_pass and rep.inf_pass
    # zero penalty levels fail unless the gradient is exactly zero;
    # here roundoff leaves a ~1e-19 gradient, so the check fails
    rep0 = verify_dual_bounds(ctx, model, (0.0, 0.0))
    assert not (rep0.op_pass or rep0.inf_pass)


def test_verify_dual_bounds_zero_lambda_fails_on_noisy_data():
    model = generate_drift(d=3, r=1, s=2, seed=5, spectral_floor=0.5)
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    obs = simulate_path(model, regime, PathConfig(delta_n=0.1, n_obs=200, seed=1))
    ctx = build_context(obs, localization_from_observations(obs))
    rep = verify_dual_bounds(ctx, model, (0.0, 0.0))
    assert not rep.op_pass and not rep.inf_pass


def test_verify_rsc_injected_identity():
    obs = ObservationSet(np.vstack([np.eye(2), np.eye(2)[:1]]), 1.0)
    ctx = build_context(obs, LocalizationConfig(radius_b=10.0, eta=10.0))
    from dataclasses import replace

    ctx = replace(ctx, c_n=np.eye(2))
    rep = verify_rsc(ctx, reference_cov=np.eye(2))
    assert rep.min_eig_cn == pytest.approx(1.0)
    assert rep.passes


def test_verify_rsc_without_reference_is_unknown():
    obs = ObservationSet(np.vstack([np.eye(2), np.eye(2)[:1]]), 1.0)
    ctx = build_context(obs, LocalizationConfig(radius_b=10.0, eta=10.0))
    rep = verify_rsc(ctx)
    assert rep.passes is None and rep.c_b_proxy is None
    assert rep.min_eig_cn == pytest.approx(float(np.linalg.eigvalsh(ctx.c_n)[0]))


def test_verify_rsc_small_sample_fails_and_norm_floor_holds():
    model = generate_drift(d=4, r=1, s=2, seed=6, spectral_floor=0.5)
    regime = LevyRegime(tag="continuous", sigma=np.eye(4))
    obs = simulate_path(model, regime, PathConfig(delta_n=0.1, n_obs=5, seed=2))
    ctx = build_context(obs, LocalizationConfig(radius_b=1e9, eta=1e9))
    rep = verify_rsc(ctx, reference_cov=np.eye(4))  # generous reference
    assert not rep.passes
    # the floor bound is exact for the empirical seminorm
    from oudrift.contrast import empirical_norm_sq

    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        assert empirical_norm_sq(ctx, a) >= rep.min_eig_cn * np.linalg.norm(a) ** 2 - 1e-9


def test_compute_error_metrics_exact_recovery():
    model = generate_drift(d=4, r=1, s=3, seed=7)
    res = as_result(model.l0, model.s0)
    m = compute_error_metrics(model, res)
    assert m.frob_err_sq == 0.0
    assert m.support_precision == 1.0
    assert m.support_recall == 1.0
    assert m.rank_l_hat == 1


def test_compute_error_metrics_zero_sparse_convention():
    model = generate_drift(d=4, r=1, s=3, seed=8)
    res = as_result(model.l0, np.zeros((4, 4)))
    m = compute_error_metrics(model, res)
    assert m.support_recall == 0.0
    assert m.support_precision == 1.0  # 0/0 convention


def test_compute_error_metrics_matches_direct_sum():
    model = generate_drift(d=4, r=1, s=3, seed=9)
    rng = np.random.default_rng(1)
    a_hat = rng.standard_normal((4, 4))
    res = as_result(a_hat, np.zeros((4, 4)))
    m = compute_error_metrics(model, res)
    direct = sum(
        (a_hat[i, j] - model.a0[i, j]) ** 2 for i in range(4) for j in range(4)
    )
    assert m.frob_err_sq == pytest.approx(direct, rel=1e-12)


def test_oracle_bound_compare_planted():
    d, r, s = 10, 2, 5
    t_list = [100.0, 200.0, 400.0, 800.0]
    gammas = [1.0] * 4
    planted = [
        [2.0 * g / t * (r + s) * np.log(d)] * 5 for g, t in zip(gammas, t_list)
    ]
    fit = oracle_bound_compare(planted, d, r, s, t_list, gammas, delta_n=0.1)
    assert fit.c2 == pytest.approx(2.0, abs=1e-8)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
    assert fit.slope_log_t == pytest.approx(-1.0, abs=1e-8)


def test_oracle_bound_compare_needs_three_horizons():
    with pytest.raises(ValueError):
        oracle_bound_compare([[1.0], [2.0]], 5, 1, 1, [100.0, 200.0], [1.0, 1.0], 0.1)
    with pytest.raises(ValueError):
        oracle_bound_compare([[1.0]] * 3, 5, 1, 1, [100.0, 100.0, 100.0], [1.0] * 3, 0.1)


def test_solver_error_lands_in_cone_on_moderate_instances():
    hits = 0
    total = 10
    for k in range(total):
        model = generate_drift(d=6, r=1, s=6, seed=30 + k, spectral_floor=0.5)
        regime = LevyRegime(tag="continuous", sigma=np.eye(6))
        obs = simulate_path(model, regime, PathConfig(delta_n=0.1, n_obs=2000, substeps=5, seed=60 + k))
        ctx = build_context(obs, localization_from_observations(obs))
        lam = tune_lambdas(6, 200.0, TuningConfig(c_op=0.01, c_one=0.004))
        res = solve(ctx, lam, SolverConfig())
        rep = cone_membership(model.tangent, res.l_hat - model.l0, res.s_hat - model.s0)
        hits += int(rep.in_cone)
    assert hits >= 9


def test_linear_fit_exact_line():
    slope, intercept, r2 = linear_fit([1.0, 2.0, 3.0], [3.0, 5.0, 7.0])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)
