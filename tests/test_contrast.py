import numpy as np
import pytest

from oudrift.contrast import (
    DegenerateLocalizationError,
    LocalizationConfig,
    build_context,
    empirical_norm_sq,
    estimate_disc_bias,
    gradient,
    localization_from_observations,
    loss,
)
from oudrift.models import generate_drift
from oudrift.simulate import (
    LevyRegime,
    ObservationSet,
    PathConfig,
    empirical_trunc_moment,
    simulate_path,
)


def make_obs(d=4, n=400, seed=0, delta_n=0.1):
    model = generate_drift(d=d, r=1, s=d, seed=seed, spectral_floor=0.5)
    regime = LevyRegime(tag="continuous", sigma=np.eye(d))
    obs = simulate_path(model, regime, PathConfig(delta_n=delta_n, n_obs=n, substeps=4, seed=seed))
    return model, obs


def noiseless_obs(model, x0, n, delta_n):
    # substeps=1 makes the increment identity dX = -A0 X dn exact
    regime = LevyRegime(tag="continuous", sigma=None)
    cfg = PathConfig(delta_n=delta_n, n_obs=n, substeps=1, burn_in_time=0.0, seed=0)
    return simulate_path(model, regime, cfg, x0=x0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["radius_b", "eta"])
def test_localization_config_rejects_nonfinite_settings(key, value):
    with pytest.raises(ValueError, match=key):
        LocalizationConfig(**{"radius_b": 1.0, "eta": 1.0, key: value})


def test_localization_config_validation():
    with pytest.raises(ValueError):
        LocalizationConfig(radius_b=0.0, eta=1.0)
    with pytest.raises(ValueError):
        LocalizationConfig(radius_b=1.0, eta=0.0)


def test_build_context_no_truncation():
    _, obs = make_obs()
    ctx = build_context(obs, LocalizationConfig(radius_b=1e9, eta=1e9))
    assert ctx.n_active == ctx.n
    x = obs.states[:-1]
    np.testing.assert_allclose(ctx.c_n, x.T @ x / ctx.n, atol=1e-12)


def _reference_statistics(obs, loc):
    """s0, m1, c_n and n_active reduced in one shot from a fresh np.diff
    whose inactive rows are zeroed, and from a copy of the active states."""
    x_prev = obs.states[:-1]
    inc = np.diff(obs.states, axis=0)
    n = len(inc)
    active = (np.sqrt(np.einsum("ij,ij->i", x_prev, x_prev)) <= loc.radius_b) & (
        np.sqrt(np.einsum("ij,ij->i", inc, inc)) <= loc.eta
    )
    inc[~active] = 0.0
    xa = x_prev[active]
    c_n = xa.T @ xa / n
    return float(np.vdot(inc, inc)) / n, inc.T @ x_prev / n, (c_n + c_n.T) / 2.0, int(active.sum())


def _assert_close_to_largest(got, want):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * scale, (got, want)


@pytest.mark.parametrize(
    "loc, all_active",
    [
        (LocalizationConfig(radius_b=1e9, eta=1e9), True),
        (LocalizationConfig(radius_b=3.5, eta=1.5), False),  # 4783 of 9000 rows active
    ],
    ids=["all-active", "partly-active"],
)
def test_build_context_matches_one_shot_reduction_and_caches_no_increments(loc, all_active):
    # the block-wise sums differ from one-shot sums only in rounding
    _, obs = make_obs(d=20, n=9000, seed=6)  # six blocks of the reduction
    s0, m1, c_n, n_active = _reference_statistics(obs, loc)
    states = obs.states.copy()
    ctx = build_context(obs, loc)
    assert (ctx.n_active == ctx.n) is all_active and ctx.n_active > 0
    assert ctx.n_active == n_active
    _assert_close_to_largest(ctx.s0, s0)
    _assert_close_to_largest(ctx.m1, m1)
    _assert_close_to_largest(ctx.c_n, c_n)
    assert np.array_equal(ctx.c_n, ctx.c_n.T)

    assert np.array_equal(obs.states, states)
    norms = (obs.state_norms_sq, obs.increment_norms_sq)
    again = build_context(obs, loc)
    assert again.s0 == ctx.s0 and np.array_equal(again.m1, ctx.m1)
    assert np.array_equal(again.c_n, ctx.c_n)
    assert obs.state_norms_sq is norms[0] and obs.increment_norms_sq is norms[1]
    assert set(vars(obs)) == {"states", "delta_n", "state_norms_sq", "increment_norms_sq"}


def test_build_context_total_truncation_errors():
    _, obs = make_obs()
    with pytest.raises(DegenerateLocalizationError):
        build_context(obs, LocalizationConfig(radius_b=1e9, eta=1e-15))


@pytest.mark.parametrize(
    "states, level",
    [
        (np.zeros((5, 2)), "radius_b=0, eta=0"),   # a path at the origin
        (np.ones((5, 2)), "radius_b=4.24264, eta=0"),  # a path that never moves
    ],
)
def test_localization_of_a_still_path_is_degenerate(states, level):
    obs = ObservationSet(states, delta_n=0.1)
    with pytest.raises(DegenerateLocalizationError, match=level):
        localization_from_observations(obs)


def test_localization_and_trunc_moment_read_no_state_row():
    # both read the norms ObservationSet measured once; overwriting the
    # caller's array under the read-only view leaves them unchanged
    _, path = make_obs(d=4, n=400, seed=2)
    states = path.states.copy()
    obs = ObservationSet(states, delta_n=path.delta_n)
    loc = localization_from_observations(obs)
    moment = empirical_trunc_moment(obs, loc.eta / 4.0)
    assert moment > 0
    states[:] = np.nan
    assert localization_from_observations(obs) == loc
    assert empirical_trunc_moment(obs, loc.eta / 4.0) == moment


def test_build_context_hand_dataset():
    obs = ObservationSet(np.array([[1.0], [3.0]]), delta_n=1.0)
    ctx = build_context(obs, LocalizationConfig(radius_b=2.0, eta=10.0))
    assert ctx.n_active == 1
    np.testing.assert_allclose(ctx.c_n, [[1.0]])


def test_loss_zero_on_noiseless_data_at_truth():
    model = generate_drift(d=3, r=1, s=2, seed=4, spectral_floor=0.5)
    obs = noiseless_obs(model, x0=np.array([1.0, -1.0, 0.5]), n=30, delta_n=0.05)
    ctx = build_context(obs, LocalizationConfig(radius_b=1e9, eta=1e9))
    assert loss(ctx, model.a0) <= 1e-15  # exact cancellation up to fp roundoff
    np.testing.assert_allclose(gradient(ctx, model.a0), np.zeros((3, 3)), atol=1e-14)


def test_loss_at_zero_is_mean_squared_increment():
    _, obs = make_obs()
    ctx = build_context(obs, LocalizationConfig(radius_b=1e9, eta=1e9))
    expected = np.sum(np.diff(obs.states, axis=0) ** 2) / ctx.n
    assert loss(ctx, np.zeros((obs.d, obs.d))) == pytest.approx(expected)


def test_loss_and_gradient_hand_case():
    # one observation: X0 = 2, dX = -1, delta_n = 0.5, a = 0.5
    obs = ObservationSet(np.array([[2.0], [1.0]]), delta_n=0.5)
    ctx = build_context(obs, LocalizationConfig(radius_b=10.0, eta=10.0))
    a = np.array([[0.5]])
    # residual: -1 + 0.5 * 2 * 0.5 = -0.5
    assert loss(ctx, a) == pytest.approx(0.25)
    # gradient: 2 * 0.5 * (-0.5) * 2 = -1
    assert gradient(ctx, a)[0, 0] == pytest.approx(-1.0)


def test_gradient_matches_finite_differences():
    _, obs = make_obs(d=4, n=200, seed=3)
    ctx = build_context(obs, localization_from_observations(obs))
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        g = gradient(ctx, a)
        fd = np.zeros_like(g)
        h = 1e-6
        for i in range(4):
            for j in range(4):
                ap = a.copy(); ap[i, j] += h
                am = a.copy(); am[i, j] -= h
                fd[i, j] = (loss(ctx, ap) - loss(ctx, am)) / (2 * h)
        assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-5


def test_empirical_norm_formulas_agree():
    _, obs = make_obs(d=3, n=150, seed=5)
    loc = localization_from_observations(obs, radius_mult=1.0, eta_mult=1.0)
    ctx = build_context(obs, loc)
    rng = np.random.default_rng(1)
    x = obs.states[:-1]
    active = (np.linalg.norm(x, axis=1) <= loc.radius_b) & (
        np.linalg.norm(np.diff(obs.states, axis=0), axis=1) <= loc.eta
    )
    assert 0 < active.sum() < ctx.n  # truncation is exercised
    assert ctx.n_active == active.sum()
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        direct = sum(
            float(np.sum((a @ x[k]) ** 2))
            for k in range(ctx.n)
            if active[k]
        ) / ctx.n
        assert abs(empirical_norm_sq(ctx, a) - direct) <= 1e-10 * max(1.0, direct)
    assert empirical_norm_sq(ctx, np.zeros((3, 3))) == 0.0
    assert empirical_norm_sq(ctx, np.eye(3)) == pytest.approx(np.trace(ctx.c_n))


def test_loss_is_exactly_quadratic():
    _, obs = make_obs(d=4, n=250, seed=6)
    ctx = build_context(obs, localization_from_observations(obs))
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        lhs = loss(ctx, a)
        rhs = (
            loss(ctx, b)
            + float(np.sum(gradient(ctx, b) * (a - b)))
            + ctx.delta_n**2 * empirical_norm_sq(ctx, a - b)
        )
        assert abs(lhs - rhs) <= 1e-9


def test_loss_convexity_on_random_triples():
    _, obs = make_obs(d=3, n=100, seed=7)
    ctx = build_context(obs, localization_from_observations(obs))
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        t = float(rng.uniform())
        mix = loss(ctx, t * a + (1 - t) * b)
        assert mix <= t * loss(ctx, a) + (1 - t) * loss(ctx, b) + 1e-10


def test_c_n_is_psd():
    _, obs = make_obs(d=5, n=300, seed=8)
    ctx = build_context(obs, localization_from_observations(obs))
    assert np.min(np.linalg.eigvalsh(ctx.c_n)) >= -1e-12


def test_enlarging_localization_never_shrinks_active_set():
    _, obs = make_obs(d=3, n=200, seed=9)
    base = localization_from_observations(obs, radius_mult=1.0, eta_mult=1.0)
    n_base = build_context(obs, base).n_active
    wider = LocalizationConfig(radius_b=2 * base.radius_b, eta=base.eta)
    taller = LocalizationConfig(radius_b=base.radius_b, eta=2 * base.eta)
    assert build_context(obs, wider).n_active >= n_base
    assert build_context(obs, taller).n_active >= n_base


def test_reduction_is_permutation_invariant():
    # The statistics are sums over the terms (X_{k-1}, dX_k): segments of the
    # path, reduced one by one and combined in any order, give the whole path's.
    _, obs = make_obs(d=3, n=150, seed=10)
    loc = localization_from_observations(obs, radius_mult=1.0, eta_mult=1.0)
    whole = build_context(obs, loc)
    assert whole.n_active < whole.n
    cuts = [0, 30, 60, 90, 120, 150]
    parts = [
        build_context(ObservationSet(obs.states[lo:hi + 1], obs.delta_n), loc)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]
    for order in ([0, 1, 2, 3, 4], np.random.default_rng(4).permutation(5)):
        chosen = [parts[i] for i in order]
        assert sum(p.n_active for p in chosen) == whole.n_active
        assert sum(p.n for p in chosen) == whole.n
        for stat in ("s0", "m1", "c_n"):
            combined = sum(p.n * getattr(p, stat) for p in chosen) / whole.n
            np.testing.assert_allclose(combined, getattr(whole, stat), atol=1e-9)


def test_disc_bias_zero_for_noiseless_linear_data():
    model = generate_drift(d=3, r=1, s=2, seed=12, spectral_floor=0.5)
    regime = LevyRegime(tag="continuous", sigma=None)
    loc = LocalizationConfig(radius_b=1e9, eta=1e9)
    table = estimate_disc_bias(
        model, regime, loc, [0.2, 0.1, 0.05], t_fixed=5.0, substeps=1,
        replicates=2, seed=0, x0=np.array([1.0, 0.5, -0.5]), burn_in_time=0.0,
    )
    assert table.shape == (3, 2)
    assert np.all(table[:, 1] <= 1e-15)  # zero up to fp roundoff


def test_disc_bias_single_mesh_single_row():
    model = generate_drift(d=2, r=0, s=1, seed=13, spectral_floor=0.5)
    regime = LevyRegime(tag="continuous", sigma=np.eye(2))
    loc = LocalizationConfig(radius_b=1e9, eta=1e9)
    table = estimate_disc_bias(model, regime, loc, [0.1], t_fixed=5.0, replicates=2, seed=1)
    assert table.shape == (1, 2)
    assert table[0, 0] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        estimate_disc_bias(model, regime, loc, [], t_fixed=5.0)
