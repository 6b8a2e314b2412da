import math
from dataclasses import replace

import numpy as np
import pytest

import oudrift.solver as solver
from oudrift.contrast import (
    ContrastContext,
    LocalizationConfig,
    _loss_given_product,
    build_context,
    gradient,
    localization_from_observations,
    loss,
)
from oudrift.matrix_ops import l1_norm, linf_norm, nuclear_norm, operator_norm, soft_threshold
from oudrift.models import generate_drift
from oudrift.simulate import LevyRegime, ObservationSet, PathConfig, simulate_path
from oudrift.solver import (
    DivergenceError,
    SolverConfig,
    TuningConfig,
    check_optimality,
    gamma_factor,
    solve,
    tune_lambdas,
)


def make_obs(d=5, n=500, seed=0, delta_n=0.1):
    model = generate_drift(d=d, r=1, s=d, seed=seed, spectral_floor=0.5)
    regime = LevyRegime(tag="continuous", sigma=np.eye(d))
    obs = simulate_path(model, regime, PathConfig(delta_n=delta_n, n_obs=n, substeps=4, seed=seed))
    return model, obs


def make_ctx(d=5, n=500, seed=0, delta_n=0.1):
    model, obs = make_obs(d, n, seed, delta_n)
    return model, build_context(obs, localization_from_observations(obs))


def test_solve_runs_one_eigh_per_prox_step(monkeypatch):
    _, ctx = make_ctx()
    calls = {"svd": 0, "eigh": 0, "prox": 0}
    real_svd, real_eigh, real_prox = np.linalg.svd, np.linalg.eigh, solver._prox_step

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting("svd", real_svd))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", real_eigh))
    monkeypatch.setattr(solver, "_prox_step", counting("prox", real_prox))
    result = solve(ctx, (0.005, 0.002), SolverConfig(max_iters=50))
    assert calls["prox"] >= result.iterations > 1
    # each prox step thresholds through one Gram eigendecomposition; the
    # only SVD is the nuclear norm of the initial objective
    assert calls["eigh"] == calls["prox"]
    assert calls["svd"] == 1


def objective(ctx, l_mat, s_mat, lambdas):
    return (
        loss(ctx, l_mat + s_mat) + lambdas[0] * nuclear_norm(l_mat) + lambdas[1] * l1_norm(s_mat)
    )


def _reference_solve(ctx, lambdas, cfg, start=None):
    """The solver loop as it was before the loss and gradient shared one
    product: loss and gradient each recompute a @ c_n through the validating
    public contrast functions, and the sparse step's loss is evaluated, not
    expanded.  Kept as the oracle of `solve`; also returns how often the
    line search shrank the step."""
    lam_star, lam_one = float(lambdas[0]), float(lambdas[1])
    d, dn = ctx.d, ctx.delta_n
    if start is None:
        l_cur, s_cur = np.zeros((d, d)), np.zeros((d, d))
    else:
        l_cur, s_cur = (np.array(m, dtype=float) for m in start)
    lip = 2.0 * dn * dn * float(np.linalg.eigvalsh(ctx.c_n)[-1])
    tau = 1.0 / lip if lip > 0 else 1.0
    f_cur = loss(ctx, l_cur + s_cur) + lam_star * nuclear_norm(l_cur) + lam_one * l1_norm(s_cur)
    trace = [f_cur]
    l_prev, s_prev = l_cur, s_cur
    t_mom, t_mom_prev = 1.0, 1.0
    converged = False
    iterations = backtracks = 0
    for it in range(1, cfg.max_iters + 1):
        iterations = it
        if t_mom > 1.0:
            beta = (t_mom_prev - 1.0) / t_mom
            l_pt = l_cur + beta * (l_cur - l_prev)
            s_pt = s_cur + beta * (s_cur - s_prev)
        else:
            l_pt, s_pt = l_cur, s_cur
        for _restart in range(2):
            a_pt = l_pt + s_pt
            f_pt = loss(ctx, a_pt)
            g = gradient(ctx, a_pt)
            while True:
                l_new, s_new, nuc_new = solver._prox_step(l_pt, s_pt, g, tau, lam_star, lam_one)
                dl = l_new - l_pt
                ds = s_new - s_pt
                f_smooth = loss(ctx, l_new + s_new)
                bound = (
                    f_pt
                    + float(np.sum(g * dl)) + float(np.sum(g * ds))
                    + (float(np.sum(dl * dl)) + float(np.sum(ds * ds))) / (2.0 * tau)
                )
                if f_smooth <= bound + 1e-14 * max(1.0, abs(bound)):
                    break
                tau *= 0.5
                backtracks += 1
            f_new = f_smooth + lam_star * nuc_new + lam_one * l1_norm(s_new)
            if f_new <= f_cur or (l_pt is l_cur and s_pt is s_cur):
                break
            t_mom = 1.0
            l_pt, s_pt = l_cur, s_cur
        # the sparse block's own step at the S-only inverse Lipschitz
        # constant, kept when it lowers the objective
        tau_s = 1.0 / lip if lip > 0 else 1.0
        g = gradient(ctx, l_new + s_new)
        s_try = soft_threshold(s_new - tau_s * g, tau_s * lam_one)
        f_try = loss(ctx, l_new + s_try) + lam_star * nuc_new + lam_one * l1_norm(s_try)
        if f_try < f_new:
            s_new, f_new = s_try, f_try
        momentum_step = l_pt is not l_cur or s_pt is not s_cur
        l_prev, s_prev = l_cur, s_cur
        l_cur, s_cur = l_new, s_new
        rel_decrease = (f_cur - f_new) / max(1.0, abs(f_cur))
        f_cur = min(f_new, f_cur)
        trace.append(f_cur)
        if momentum_step and rel_decrease <= 0.0:
            t_mom = 1.0
            continue
        t_mom_prev = t_mom
        t_mom = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        if rel_decrease < cfg.tol:
            converged = True
            break
    result = solver.EstimateResult(
        l_hat=l_cur, s_hat=s_cur, a_hat=l_cur + s_cur, objective_trace=np.array(trace),
        iterations=iterations, converged=converged,
    )
    return result, backtracks


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_solve_matches_reference_loop(start):
    # criterion-5-style contexts at the default step, which is twice the
    # inverse Lipschitz constant, so the line search backtracks on some
    # (after the sparse steps, rarely: about one solve in ten)
    rng = np.random.default_rng(5)
    backtracks = 0
    for k in range(10):
        d = int(rng.integers(4, 16))
        _, ctx = make_ctx(d=d, n=600, seed=100 + k)
        lam = tune_lambdas(d, ctx.n * ctx.delta_n, TuningConfig(c_op=0.02, c_one=0.005))
        cfg = SolverConfig(max_iters=400)
        pair = None
        if start == "warm":
            prev = solve(ctx, (2.0 * lam[0], 2.0 * lam[1]), cfg)
            pair = (prev.l_hat, prev.s_hat)
        got = solve(ctx, lam, cfg, start=pair)
        want, shrinks = _reference_solve(ctx, lam, cfg, start=pair)
        backtracks += shrinks
        # the loop reuses products and sums by BLAS dots, so it matches the
        # oracle to rounding, not bit for bit
        scale = float(np.max(np.abs(want.a_hat)))
        for name in ("l_hat", "s_hat", "a_hat"):
            np.testing.assert_allclose(
                getattr(got, name), getattr(want, name), rtol=0.0, atol=1e-10 * scale
            )
        np.testing.assert_allclose(got.objective_trace, want.objective_trace, rtol=1e-12)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)

        final = objective(ctx, got.l_hat, got.s_hat, lam)
        assert got.objective_trace[-1] == pytest.approx(final, rel=1e-12, abs=0.0)
    assert backtracks > 0


def random_context(rng, d):
    """A context with a random positive semidefinite c_n (rank d // 2 on
    some draws) and random m1, delta_n and s0."""
    x = rng.standard_normal((d, int(rng.choice([d // 2, 2 * d]))))
    return ContrastContext(
        d=d, delta_n=float(rng.uniform(0.05, 1.0)), n=1, n_active=1,
        s0=float(rng.uniform(0.0, 2.0)), m1=rng.standard_normal((d, d)), c_n=x @ x.T / x.shape[1],
    )


def test_sparse_step_follows_every_pair_step_and_never_raises_the_objective(monkeypatch):
    real = solver._sparse_step
    steps = []

    def recording(ctx, lam_one, s_mat, l1_s, ac, loss_s, f, tau):
        assert l1_s == float(np.abs(s_mat).sum())
        out = real(ctx, lam_one, s_mat, l1_s, ac, loss_s, f, tau)
        steps.append((f, out))
        return out

    monkeypatch.setattr(solver, "_sparse_step", recording)
    for seed in range(4):
        _, ctx = make_ctx(d=8, seed=20 + seed)
        lam = tune_lambdas(ctx.d, ctx.n * ctx.delta_n, TuningConfig(c_op=0.02, c_one=0.005))
        steps.clear()
        res = solve(ctx, lam, SolverConfig(max_iters=300))
        assert len(steps) == res.iterations
        assert all(out[3] <= f for f, out in steps)
        assert any(out[3] < f for f, out in steps)
        # the expanded loss and the updated product match a fresh evaluation
        s_last, ac_last, loss_last, f_last = steps[-1][1]
        a_last = res.l_hat + s_last
        np.testing.assert_allclose(ac_last, a_last @ ctx.c_n, rtol=0.0, atol=1e-12)
        assert loss_last == pytest.approx(loss(ctx, a_last), rel=1e-12, abs=1e-14)
        assert f_last == pytest.approx(objective(ctx, res.l_hat, s_last, lam), rel=1e-12)


def test_sparse_step_is_skipped_unless_strictly_lower():
    _, ctx = make_ctx(seed=21)
    rng = np.random.default_rng(0)
    l_mat, s_mat = rng.standard_normal((2, ctx.d, ctx.d))
    ac = (l_mat + s_mat) @ ctx.c_n
    loss_s = loss(ctx, l_mat + s_mat)
    tau = 1.0 / (2.0 * ctx.delta_n**2 * ctx.c_n_eigvals[-1])
    # a candidate that ties (a level zeroing every entry, from S = 0) or
    # raises the objective (a step far past the S-only inverse Lipschitz
    # constant overshoots) is skipped: the inputs come back as they are
    zero = np.zeros_like(s_mat)
    ac0 = l_mat @ ctx.c_n
    f0 = loss(ctx, l_mat) + 0.1 * nuclear_norm(l_mat)
    out = solver._sparse_step(ctx, 1e6, zero, 0.0, ac0, loss(ctx, l_mat), f0, tau)
    assert out[0] is zero and out[1] is ac0 and out[3] == f0
    f = objective(ctx, l_mat, s_mat, (0.1, 0.0))
    l1 = float(np.abs(s_mat).sum())
    overshoot = solver._sparse_step(ctx, 0.0, s_mat, l1, ac, loss_s, f, 100.0 * tau)
    assert objective(ctx, l_mat, s_mat - 100.0 * tau * gradient(ctx, l_mat + s_mat), (0.1, 0.0)) > f
    assert overshoot[0] is s_mat and overshoot[1] is ac and overshoot[2:] == (loss_s, f)
    # at the Lipschitz step the same candidate lowers the objective
    assert solver._sparse_step(ctx, 0.0, s_mat, l1, ac, loss_s, f, tau)[3] < f


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sparse_step_skips_a_nonfinite_candidate():
    # a product near overflow makes the gradient infinite and the
    # candidate's objective NaN, which is never strictly lower
    d = 3
    ctx = ContrastContext(d=d, delta_n=1.0, n=1, n_active=1, s0=0.0, m1=np.zeros((d, d)), c_n=np.eye(d))
    s_mat = np.ones((d, d))
    ac = np.full((d, d), 1e308)
    out = solver._sparse_step(ctx, 0.1, s_mat, float(d * d), ac, 1.0, 2.0, 0.5)
    assert out[0] is s_mat and out[1] is ac and out[2:] == (1.0, 2.0)


def test_sparse_step_satisfies_the_quadratic_upper_bound():
    # at tau = 1 / (2 delta_n^2 max-eig(c_n)) the S-only curvature
    # delta_n^2 <ds c_n, ds> is at most ||ds||^2 / (2 tau), so the new loss
    # lies under the bound without a line search
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 12))
        ctx = random_context(rng, d)
        tau = 1.0 / (2.0 * ctx.delta_n**2 * ctx.c_n_eigvals[-1])
        l_mat, s_mat = rng.standard_normal((2, d, d))
        a = l_mat + s_mat
        lam_one = float(rng.uniform(0.0, 1.0))
        f = objective(ctx, l_mat, s_mat, (0.3, lam_one))
        s_new, _, loss_new, f_new = solver._sparse_step(
            ctx, lam_one, s_mat, float(np.abs(s_mat).sum()), a @ ctx.c_n, loss(ctx, a), f, tau
        )
        ds = s_new - s_mat
        bound = loss(ctx, a) + float(np.sum(gradient(ctx, a) * ds)) + float(np.sum(ds * ds)) / (2 * tau)
        assert loss(ctx, l_mat + s_new) <= bound + 1e-10 * max(1.0, abs(bound))
        assert loss_new == pytest.approx(loss(ctx, l_mat + s_new), rel=1e-10, abs=1e-10)
        assert f_new <= f


def test_tune_lambdas_formula():
    lam_star, lam_one = tune_lambdas(10, 100.0, TuningConfig())
    assert lam_star == pytest.approx(2 * math.sqrt(math.log(10) / 100), abs=1e-5)
    assert lam_star == pytest.approx(0.30349, abs=1e-4)
    assert lam_one == pytest.approx(0.42920, abs=1e-4)


def test_tune_lambdas_override_and_scaling():
    a = tune_lambdas(10, 100.0, TuningConfig())
    b = tune_lambdas(10, 200.0, TuningConfig())
    assert b[0] == pytest.approx(a[0] / math.sqrt(2))
    assert b[1] == pytest.approx(a[1] / math.sqrt(2))
    # a configured gamma overrides the regime's factor
    c = tune_lambdas(10, 100.0, TuningConfig(gamma_value=4.0))
    assert c == pytest.approx((2.0 * a[0], 2.0 * a[1]))
    with pytest.raises(ValueError):
        tune_lambdas(1, 100.0, TuningConfig())
    with pytest.raises(ValueError):
        tune_lambdas(10, 0.0, TuningConfig())


def test_gamma_factor_rules():
    cont = LevyRegime(tag="continuous", sigma=np.eye(2))
    bound = LevyRegime(tag="bounded", sigma=None, jump_rate=1.0, jump_scale=0.5, z0=1.0)
    subw = LevyRegime(tag="subweibull", sigma=None, jump_rate=1.0, jump_scale=0.5, alpha=2.0)
    poly = LevyRegime(tag="polymoment", sigma=None, jump_rate=1.0, jump_scale=0.5, p=4.0)
    assert gamma_factor(cont, 0.1) == 1.0
    assert gamma_factor(bound, 0.1) == 1.0
    assert gamma_factor(subw, 0.1) == pytest.approx((1 + math.log(10.0)) ** 1.0)
    assert gamma_factor(poly, 0.1) == pytest.approx(0.1 ** (-0.5))
    # the sub-Weibull rule needs log(1/delta_n) > 0: past delta_n = e it
    # would be complex, so every delta_n >= 1 is refused by name
    subw = replace(subw, alpha=1.5)
    for delta_n in (1.0, 1.5, math.e, 3.0):
        with pytest.raises(ValueError, match="delta_n must be below 1"):
            gamma_factor(subw, delta_n)
    for regime in (cont, bound, poly):
        assert isinstance(gamma_factor(regime, 3.0), float)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("tag", ["continuous", "bounded", "subweibull", "polymoment"])
def test_gamma_factor_rejects_nonfinite_delta_n(tag, value):
    # NaN and inf pass a `<= 0` check: the constant rules answered 1.0 and
    # the polymoment rule 0.0
    regime = LevyRegime(tag=tag, sigma=np.eye(2))
    with pytest.raises(ValueError, match="delta_n must be finite and positive"):
        gamma_factor(regime, value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_tune_lambdas_rejects_nonfinite_horizon(value):
    # an infinite horizon gave penalties (0, 0), an unpenalized solve, and
    # NaN gave (NaN, NaN)
    with pytest.raises(ValueError, match="t_horizon must be finite and positive"):
        tune_lambdas(4, value, TuningConfig())


def test_huge_lambdas_give_zero_solution():
    _, ctx = make_ctx(seed=1)
    g0 = gradient(ctx, np.zeros((ctx.d, ctx.d)))
    lam = (10 * operator_norm(g0), 10 * linf_norm(g0))
    res = solve(ctx, lam, SolverConfig())
    np.testing.assert_array_equal(res.l_hat, np.zeros((ctx.d, ctx.d)))
    np.testing.assert_array_equal(res.s_hat, np.zeros((ctx.d, ctx.d)))
    # zero is certified optimal
    rep = check_optimality(ctx, res, lam)
    assert rep.nuclear_residual == 0.0
    assert rep.l1_residual == 0.0


def test_zero_lambda_matches_normal_equations():
    _, ctx = make_ctx(seed=2)
    res = solve(ctx, (0.0, 0.0), SolverConfig(tol=1e-15, max_iters=50000))
    a_ls = -np.linalg.solve(ctx.c_n, ctx.m1.T).T / ctx.delta_n
    assert np.linalg.norm(res.a_hat - a_ls) / np.linalg.norm(a_ls) <= 1e-6


def test_momentum_tie_does_not_stop_the_solve():
    # Criterion 5's zero-penalty instances with states perturbed at 1e-14
    # relative: some accelerated steps merely tie the objective there, which
    # once stopped the solve 2e-13 above the optimum and ~1e-6 away from it.
    rng = np.random.default_rng(3)
    noise = np.random.default_rng(0)
    worst = 0.0
    for k in range(20):
        d = int(rng.integers(4, 16))
        model = generate_drift(d=d, r=min(2, d), s=d, seed=100 + k, spectral_floor=0.5)
        regime = LevyRegime(tag="continuous", sigma=np.eye(d))
        cfg = PathConfig(delta_n=0.1, n_obs=600, substeps=4, seed=100 + k)
        states = simulate_path(model, regime, cfg).states
        for _ in range(3):
            jitter = 1.0 + 1e-14 * noise.standard_normal(states.shape)
            obs = ObservationSet(states * jitter, 0.1)
            ctx = build_context(obs, localization_from_observations(obs))
            res = solve(ctx, (0.0, 0.0), SolverConfig(tol=1e-300, max_iters=200000))
            a_ls = -np.linalg.solve(ctx.c_n, ctx.m1.T).T / ctx.delta_n
            worst = max(worst, float(np.linalg.norm(res.a_hat - a_ls) / np.linalg.norm(a_ls)))
    assert worst <= 1e-7


def test_objective_trace_monotone_both_modes():
    # a cold start, and a warm start from the solution at twice the penalties
    _, ctx = make_ctx(seed=3)
    lam = tune_lambdas(ctx.d, ctx.n * ctx.delta_n, TuningConfig(c_op=0.01, c_one=0.003))
    cold = solve(ctx, lam, SolverConfig(max_iters=300))
    prev = solve(ctx, (2.0 * lam[0], 2.0 * lam[1]), SolverConfig(max_iters=300))
    warm = solve(ctx, lam, SolverConfig(max_iters=300), start=(prev.l_hat, prev.s_hat))
    for res in (cold, warm):
        assert len(res.objective_trace) > 2
        diffs = np.diff(res.objective_trace)
        assert np.all(diffs <= 1e-12)
        assert res.a_hat is not res.l_hat
        np.testing.assert_allclose(res.a_hat, res.l_hat + res.s_hat)


def test_max_iters_reached_is_not_an_error():
    _, ctx = make_ctx(seed=11, n=100)
    lam = tune_lambdas(ctx.d, 10.0, TuningConfig(c_op=0.001, c_one=0.0003))
    res = solve(ctx, lam, SolverConfig(max_iters=3, tol=1e-300))
    assert not res.converged
    assert res.iterations == 3


def test_moderate_lambda_error_tracks_penalty_scale():
    # noiseless data: the exact recovery error is pure penalty shrinkage,
    # so the ratio to the bound shape sqrt(2r) lam_* + sqrt(s) lam_1 is the
    # empirical constant of the risk bound (reported, not asserted)
    d = 6
    model = generate_drift(d=d, r=1, s=d, seed=12, spectral_floor=0.5)
    regime = LevyRegime(tag="continuous", sigma=None)
    cfg = PathConfig(delta_n=0.1, n_obs=100, substeps=1, burn_in_time=0.0, seed=0)
    obs = simulate_path(model, regime, cfg, x0=np.full(d, 2.0))
    ctx = build_context(obs, LocalizationConfig(radius_b=1e9, eta=1e9))
    lam = tune_lambdas(d, cfg.n_obs * cfg.delta_n, TuningConfig(c_op=0.005, c_one=0.002))
    res = solve(ctx, lam, SolverConfig(tol=1e-300, max_iters=100000))
    err = float(np.linalg.norm(res.a_hat - model.a0))
    shape = np.sqrt(2 * model.r) * lam[0] + np.sqrt(model.s) * lam[1]
    fitted_c = err / shape
    print(f"fitted bound constant on noiseless data: {fitted_c:.3f} "
          f"(err {err:.3e}, shape {shape:.3e})")
    assert np.isfinite(fitted_c) and fitted_c > 0
    assert err < np.linalg.norm(model.a0)  # estimate is nontrivial


@pytest.mark.parametrize(
    "settings",
    [
        lambda: SolverConfig(tol=math.nan),
        lambda: SolverConfig(tol=math.inf),
        lambda: TuningConfig(c_op=math.nan),
        lambda: TuningConfig(c_one=math.inf),
        lambda: TuningConfig(gamma_value=math.nan),
        lambda: solve(make_ctx(seed=5, n=50)[1], (math.nan, 1.0)),
        lambda: solve(make_ctx(seed=5, n=50)[1], (1.0, math.inf)),
    ],
    ids=["tol-nan", "tol-inf", "c_op-nan", "c_one-inf", "gamma-nan", "lambda-nan", "lambda-inf"],
)
def test_nonfinite_settings_rejected(settings):
    # NaN compares false, so a `<= 0` check lets it through; a NaN tol would
    # never stop a solve, and NaN penalty constants or levels would make every
    # row diverge (penalty levels may be zero, so theirs reads "nonnegative")
    with pytest.raises(ValueError, match="must be finite and (positive|nonnegative)"):
        settings()


def test_negative_lambdas_rejected():
    _, ctx = make_ctx(seed=5, n=50)
    with pytest.raises(ValueError):
        solve(ctx, (-1.0, 0.1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error_on_nonfinite_start():
    _, ctx = make_ctx(seed=6, n=50)
    huge = np.full((ctx.d, ctx.d), 1e200)
    with pytest.raises(DivergenceError):
        solve(ctx, (0.1, 0.1), start=(huge, huge))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_trial_point_is_divergence():
    # the solver's prox kernels skip the public operators' element scans; a
    # non-finite point must still end the solve as DivergenceError (a
    # flagged row), never as ValueError or LinAlgError
    _, ctx = make_ctx(seed=6, n=50)
    zero = np.zeros((ctx.d, ctx.d))
    for bad in (np.nan, np.inf):  # an extrapolated point that overflowed
        l_pt = np.full((ctx.d, ctx.d), bad)
        ac_pt = l_pt @ ctx.c_n
        loss_pt = _loss_given_product(ctx, l_pt, ac_pt)
        with pytest.raises(DivergenceError, match="objective non-finite at iteration 7"):
            solver._backtracked_step(ctx, 0.1, 0.1, l_pt, zero, ac_pt, loss_pt, 1.0, 7)
    # a finite start whose gradient overflows: the first trial point holds
    # -inf, on which eigh raises LinAlgError or returns NaN
    m1 = np.zeros((3, 3))
    m1[0, 0] = 1e308
    huge = ContrastContext(d=3, delta_n=1.0, n=1, n_active=1, s0=0.0, m1=m1, c_n=np.eye(3))
    with pytest.raises(DivergenceError, match="non-finite at iteration 1"):
        solve(huge, (0.1, 0.1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("l_init", np.ones((1, 5))),  # once broadcast into a 5x5 start
        ("s_init", np.ones(5)),
        ("l_init", np.ones((5, 5, 1))),
        ("s_init", np.full((5, 5), np.nan)),
        ("l_init", np.full((5, 5), np.inf)),
    ],
)
def test_malformed_warm_start_rejected(field, value):
    # `field` names the bad block of the start pair (l_init, s_init)
    _, ctx = make_ctx(seed=6, n=50)
    zero = np.zeros((ctx.d, ctx.d))
    start = (value, zero) if field == "l_init" else (zero, value)
    with pytest.raises(ValueError, match=field):
        solve(ctx, (0.1, 0.1), start=start)


def test_scaling_covariance_of_argmin():
    _, obs = make_obs(seed=7)
    loc = localization_from_observations(obs)
    ctx = build_context(obs, loc)
    t_horizon = ctx.n * ctx.delta_n
    lam = tune_lambdas(ctx.d, t_horizon, TuningConfig(c_op=0.02, c_one=0.006))
    res1 = solve(ctx, lam, SolverConfig(tol=1e-13, max_iters=20000))

    c = 4.0  # scale loss by c: scale states (and hence increments) by sqrt(c)
    obs2 = ObservationSet(np.sqrt(c) * obs.states, obs.delta_n)
    loc2 = LocalizationConfig(radius_b=np.sqrt(c) * loc.radius_b, eta=np.sqrt(c) * loc.eta)
    ctx2 = build_context(obs2, loc2)
    assert ctx2.n_active == ctx.n_active
    lam2 = (c * lam[0], c * lam[1])
    res2 = solve(ctx2, lam2, SolverConfig(tol=1e-13, max_iters=20000))

    def objective(context, result, lams):
        return (
            loss(context, result.a_hat)
            + lams[0] * nuclear_norm(result.l_hat)
            + lams[1] * l1_norm(result.s_hat)
        )

    f2 = objective(ctx2, res2, lam2)
    f1 = objective(ctx, res1, lam)
    assert abs(f2 - c * f1) <= 1e-8 * max(1.0, abs(f2))
    # and the returned minimizers are interchangeable
    f2_at_1 = objective(ctx2, res1, lam2)
    assert f2 <= f2_at_1 + 1e-8 * max(1.0, abs(f2))


def test_check_optimality_converged_and_perturbed():
    _, ctx = make_ctx(seed=8)
    lam = tune_lambdas(ctx.d, ctx.n * ctx.delta_n, TuningConfig(c_op=0.02, c_one=0.005))
    res = solve(ctx, lam, SolverConfig(tol=1e-12, max_iters=20000))
    rep = check_optimality(ctx, res, lam)
    assert rep.nuclear_residual <= 1e-4
    assert rep.l1_residual <= 1e-4
    assert rep.passes

    rng = np.random.default_rng(0)
    res.l_hat = res.l_hat + 0.01 * rng.standard_normal(res.l_hat.shape)
    res.a_hat = res.l_hat + res.s_hat
    worse = check_optimality(ctx, res, lam)
    assert worse.nuclear_residual > rep.nuclear_residual
    assert not worse.passes


def test_check_optimality_zero_lambda_reports_gradient_norms():
    _, ctx = make_ctx(seed=9, n=100)
    res = solve(ctx, (0.0, 0.0), SolverConfig(tol=1e-15, max_iters=50000))
    rep = check_optimality(ctx, res, (0.0, 0.0))
    g = gradient(ctx, res.a_hat)
    assert rep.nuclear_residual == pytest.approx(operator_norm(g))
    assert rep.l1_residual == pytest.approx(linf_norm(g))
