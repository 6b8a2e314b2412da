import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oudrift.models import generate_drift
from oudrift.simulate import (
    LevyRegime,
    ObservationSet,
    PathConfig,
    SimulationBlowupError,
    derive_seed,
    empirical_trunc_moment,
    simulate_path,
)
from oudrift.simulate import DRAW_WINDOWS, _sample_increments


def test_regime_validation():
    with pytest.raises(ValueError):
        LevyRegime(tag="weird")
    with pytest.raises(ValueError):
        LevyRegime(tag="continuous", jump_rate=1.0)
    with pytest.raises(ValueError):
        LevyRegime(tag="polymoment", p=2.0)
    with pytest.raises(ValueError):
        LevyRegime(tag="subweibull", alpha=0.0)
    with pytest.raises(ValueError):
        LevyRegime(tag="bounded", z0=-1.0)


def test_continuous_zero_sigma_gives_zero_increment():
    regime = LevyRegime(tag="continuous", sigma=np.zeros((3, 3)))
    inc = _sample_increments(regime, 0.5, 1, 3, np.random.default_rng(0))
    np.testing.assert_array_equal(inc, np.zeros((1, 3)))


def test_continuous_monte_carlo_moments():
    d = 3
    regime = LevyRegime(tag="continuous", sigma=np.eye(d))
    rng = np.random.default_rng(1)
    inc = _sample_increments(regime, 1.0, 10**5, d, rng)
    assert np.max(np.abs(inc.mean(axis=0))) <= 0.02
    cov = inc.T @ inc / inc.shape[0]
    assert np.max(np.abs(cov - np.eye(d))) <= 0.05


def test_bounded_jumps_never_exceed_z0():
    regime = LevyRegime(tag="bounded", sigma=None, jump_rate=3.0, jump_scale=2.0, z0=1.0)
    rng = np.random.default_rng(2)
    inc = _sample_increments(regime, 0.25, 20000, 2, rng)
    # single-jump windows dominate; compound sums can exceed z0, so check
    # the jump law directly as well
    from oudrift.simulate import _jump_radii

    radii = _jump_radii(regime, 10**5, rng)
    assert radii.max() <= 1.0
    assert np.all(np.isfinite(inc))


def test_martingale_property_all_regimes():
    d = 3
    regimes = [
        LevyRegime(tag="continuous", sigma=np.eye(d)),
        LevyRegime(tag="bounded", sigma=0.5 * np.eye(d), jump_rate=1.0, jump_scale=0.5, z0=1.0),
        LevyRegime(tag="subweibull", sigma=None, jump_rate=2.0, jump_scale=0.5, alpha=1.0),
        LevyRegime(tag="polymoment", sigma=None, jump_rate=2.0, jump_scale=0.5, p=4.0),
    ]
    for k, regime in enumerate(regimes):
        inc = _sample_increments(regime, 0.5, 10**5, d, np.random.default_rng(10 + k))
        mean = inc.mean(axis=0)
        std = inc.std(axis=0)
        assert np.all(np.abs(mean) <= 3.0 * std / np.sqrt(10**5) + 1e-12), regime.tag


def test_variance_scales_linearly_in_dt():
    d = 3
    regimes = [
        LevyRegime(tag="continuous", sigma=np.eye(d)),
        LevyRegime(tag="bounded", sigma=0.5 * np.eye(d), jump_rate=1.0, jump_scale=0.5, z0=1.0),
        LevyRegime(tag="subweibull", sigma=0.5 * np.eye(d), jump_rate=1.0, jump_scale=0.5, alpha=1.5),
        LevyRegime(tag="polymoment", sigma=0.5 * np.eye(d), jump_rate=1.0, jump_scale=0.5, p=4.0),
    ]
    for k, regime in enumerate(regimes):
        big = _sample_increments(regime, 0.2, 300000, d, np.random.default_rng(20 + k))
        small = _sample_increments(regime, 0.1, 300000, d, np.random.default_rng(21 + k))
        ratio = np.sum(big * big) / np.sum(small * small)
        assert 2.0 * 0.9 <= ratio <= 2.0 * 1.1, (regime.tag, ratio)


def test_noiseless_path_is_geometric_decay():
    a = 0.5
    d = 2
    model = generate_drift(d=d, r=0, s=0, seed=0, spectral_floor=a)  # a0 = a I
    regime = LevyRegime(tag="continuous", sigma=None)
    cfg = PathConfig(delta_n=0.2, n_obs=10, substeps=4, burn_in_time=0.0, seed=0)
    x0 = np.array([1.0, -2.0])
    obs = simulate_path(model, regime, cfg, x0=x0)
    dt = cfg.delta_n / cfg.substeps
    factor = (1.0 - a * dt) ** cfg.substeps
    expected = np.array([x0 * factor**k for k in range(cfg.n_obs + 1)])
    np.testing.assert_allclose(obs.states, expected, rtol=1e-12)


def test_path_determinism_bit_identical():
    model = generate_drift(d=4, r=1, s=3, seed=5)
    regime = LevyRegime(tag="bounded", sigma=0.5 * np.eye(4), jump_rate=1.0, jump_scale=0.4, z0=0.8)
    cfg = PathConfig(delta_n=0.1, n_obs=200, substeps=3, seed=77)
    a = simulate_path(model, regime, cfg)
    b = simulate_path(model, regime, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)


def test_increments_match_state_differences():
    model = generate_drift(d=3, r=1, s=2, seed=1)
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    obs = simulate_path(model, regime, PathConfig(delta_n=0.1, n_obs=50, seed=4))
    np.testing.assert_array_equal(obs.increments, np.diff(obs.states, axis=0))


def _stepwise_euler(model, regime, cfg, x0=None):
    """Reference: one Euler step per substep, on the draws simulate_path makes."""
    rng = np.random.default_rng(cfg.seed)
    d, m = model.d, cfg.substeps
    dt = cfg.delta_n / m
    burn_time = cfg.burn_in_time
    if burn_time is None:
        burn_time = 10.0 / model.stability_margin
    n_burn = int(round(burn_time / dt))
    x = np.zeros(d) if x0 is None else np.array(x0, dtype=float)
    if n_burn > 0:
        for dz in _sample_increments(regime, dt, n_burn, d, rng):
            x = x - (model.a0 @ x) * dt + dz
    dz = _sample_increments(regime, dt, cfg.n_obs * m, d, rng)
    states = [x]
    for k in range(cfg.n_obs):
        for j in range(m):
            x = x - (model.a0 @ x) * dt + dz[k * m + j]
        states.append(x)
    return np.array(states)


REGIMES_D4 = [
    LevyRegime(tag="continuous", sigma=np.eye(4)),
    LevyRegime(tag="bounded", sigma=0.5 * np.eye(4), jump_rate=1.0, jump_scale=0.4, z0=0.8),
    LevyRegime(tag="subweibull", sigma=0.5 * np.eye(4), jump_rate=1.0, jump_scale=0.5, alpha=1.0),
    LevyRegime(tag="polymoment", sigma=0.5 * np.eye(4), jump_rate=1.0, jump_scale=0.5, p=4.0),
]


@pytest.mark.parametrize("substeps", [1, 3, 10])
@pytest.mark.parametrize("regime", REGIMES_D4, ids=lambda r: r.tag)
def test_path_matches_stepwise_euler(regime, substeps):
    model = generate_drift(d=4, r=1, s=3, seed=5)
    # 0.25 / (0.1 / m) steps of burn-in: not a multiple of m for m = 3, 10
    cfg = PathConfig(delta_n=0.1, n_obs=60, substeps=substeps, burn_in_time=0.25, seed=31)
    if substeps > 1:
        assert int(round(0.25 / (0.1 / substeps))) % substeps != 0
    obs = simulate_path(model, regime, cfg)
    np.testing.assert_allclose(
        obs.states, _stepwise_euler(model, regime, cfg), rtol=1e-12, atol=1e-12
    )
    injected = PathConfig(delta_n=0.1, n_obs=60, substeps=substeps, burn_in_time=0.0, seed=32)
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    obs = simulate_path(model, regime, injected, x0=x0)
    np.testing.assert_array_equal(obs.states[0], x0)
    np.testing.assert_allclose(
        obs.states, _stepwise_euler(model, regime, injected, x0=x0), rtol=1e-12, atol=1e-12
    )


# several draw chunks and scan blocks, and a multiple of neither
LONG_N_OBS = 2 * DRAW_WINDOWS + 189
assert LONG_N_OBS % DRAW_WINDOWS and LONG_N_OBS % (math.isqrt(LONG_N_OBS - 1) + 1)
# jump_rate * dt = 1.5 at dt = 0.1 / 3: several jumps share a fine step
DENSE_JUMPS = LevyRegime(tag="polymoment", sigma=0.5 * np.eye(4), jump_rate=45.0, jump_scale=0.05, p=4.0)
NO_SIGMA = LevyRegime(tag="subweibull", sigma=None, jump_rate=2.0, jump_scale=0.5, alpha=1.0)
SHAPE_CASES = (
    [(regime, LONG_N_OBS) for regime in REGIMES_D4]
    + [(DENSE_JUMPS, 300), (replace(DENSE_JUMPS, sigma=None), 300)]
    + [(regime, n) for regime in (REGIMES_D4[0], REGIMES_D4[1], NO_SIGMA) for n in (1, 2)]
)


@pytest.mark.parametrize(
    "regime,n_obs", SHAPE_CASES,
    ids=[f"{r.tag}-{'sigma' if r.sigma is not None else 'nosigma'}-rate{r.jump_rate:g}-n{n}"
         for r, n in SHAPE_CASES],
)
def test_path_shapes_match_stepwise_euler(regime, n_obs):
    model = generate_drift(d=4, r=1, s=3, seed=5)
    cfg = PathConfig(delta_n=0.1, n_obs=n_obs, substeps=3, burn_in_time=0.25, seed=33)
    obs = simulate_path(model, regime, cfg)
    assert obs.states.shape == (n_obs + 1, 4)
    np.testing.assert_allclose(
        obs.states, _stepwise_euler(model, regime, cfg), rtol=1e-12, atol=1e-12
    )


def test_blowup_mid_block_reports_stepwise_first_crossing():
    model = generate_drift(d=3, r=0, s=0, seed=0, spectral_floor=1.0)  # a0 = I
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    # dt = 2.1 multiplies by -1.1 per step: the guard is crossed near step 290
    cfg = PathConfig(delta_n=2.1, n_obs=2000, substeps=1, burn_in_time=0.0, seed=0)
    x0 = np.ones(3)
    states = _stepwise_euler(model, regime, cfg, x0=x0)
    k = int(np.argmax(np.any(np.abs(states[1:]) >= 1e12, axis=1)))  # first bad obs - 1
    block = math.isqrt(cfg.n_obs - 1) + 1
    assert k // block >= 2 and 0 < k % block < block - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationBlowupError, match=rf"at t={(k + 1) * cfg.delta_n:g} "):
            simulate_path(model, regime, cfg, x0=x0)


def test_continuous_d20_path_never_holds_the_fine_increments():
    model = generate_drift(d=20, r=2, s=20, seed=3)
    regime = LevyRegime(tag="continuous", sigma=np.eye(20))
    cfg = PathConfig(delta_n=0.05, n_obs=40000, substeps=10, seed=7)
    fine_bytes = cfg.n_obs * cfg.substeps * model.d * 8  # 61 MiB
    tracemalloc.start()
    try:
        simulate_path(model, regime, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fine_bytes


def test_simulation_blowup_raises():
    model = generate_drift(d=3, r=0, s=0, seed=0, spectral_floor=1.0)  # a0 = I
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    cfg = PathConfig(delta_n=5.0, n_obs=2000, substeps=1, burn_in_time=0.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationBlowupError, match=r"at t=100 "):
            simulate_path(model, regime, cfg, x0=np.ones(3))


def test_simulation_blowup_in_burn_in_raises():
    model = generate_drift(d=3, r=0, s=0, seed=0, spectral_floor=1.0)  # a0 = I
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    # dt = 2.5 makes each step multiply by -1.5; 2001 steps overflow to inf,
    # and the odd count leaves one step outside the pairs of substeps
    cfg = PathConfig(delta_n=5.0, n_obs=10, substeps=2, burn_in_time=5002.5, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationBlowupError, match="burn-in"):
            simulate_path(model, regime, cfg)


def test_empirical_trunc_moment():
    states = np.array([[0.0], [1.0], [3.0], [0.0]])  # increments 1, 2, -3
    obs = ObservationSet(states, delta_n=0.5)
    assert empirical_trunc_moment(obs, eta=100.0) == 0.0
    assert empirical_trunc_moment(obs, eta=1e-12) == pytest.approx((1 + 4 + 9) / 3)
    assert empirical_trunc_moment(obs, eta=1.5) == pytest.approx((4 + 9) / 3)
    with pytest.raises(ValueError):
        empirical_trunc_moment(obs, eta=0.0)


def test_csv_round_trip_exact(tmp_path):
    model = generate_drift(d=3, r=1, s=2, seed=2)
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    obs = simulate_path(model, regime, PathConfig(delta_n=0.25, n_obs=40, seed=9))
    path = tmp_path / "obs.csv"
    obs.save_csv(path)
    loaded = ObservationSet.load_csv(path)
    assert loaded.d == obs.d
    assert loaded.delta_n == obs.delta_n
    np.testing.assert_array_equal(loaded.states, obs.states)
    np.testing.assert_array_equal(loaded.increments, obs.increments)


@pytest.mark.parametrize(
    "states",
    [np.arange(3.0), np.ones((1, 2)), np.array([[0.0, 1.0], [np.nan, 0.0]])],
    ids=["1-d", "one-row", "nan"],
)
def test_observation_set_rejects_malformed_states(states):
    with pytest.raises(ValueError):
        ObservationSet(states, delta_n=0.1)


def test_load_csv_rejects_a_lost_row(tmp_path):
    path = tmp_path / "obs.csv"
    ObservationSet(np.arange(8.0).reshape(4, 2), delta_n=0.5).save_csv(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="does not match header 'd=2,n=3,delta_n=0.5'"):
        ObservationSet.load_csv(path)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(delta_n=0.0, n_obs=10)
    with pytest.raises(ValueError):
        PathConfig(delta_n=0.1, n_obs=0)
    with pytest.raises(ValueError):
        PathConfig(delta_n=0.1, n_obs=10, substeps=0)
    with pytest.raises(ValueError):
        PathConfig(delta_n=0.1, n_obs=10, burn_in_time=-1.0)
    assert PathConfig(delta_n=0.1, n_obs=10).horizon == pytest.approx(1.0)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)
    assert 0 <= derive_seed(123, "x") < 2**63
