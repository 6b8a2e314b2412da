import math
import mmap
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import oudrift.simulate as simulate
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
from oudrift.simulate import (
    OVERFLOW_GUARD,
    _first_bad_row,
    _propagators,
    _sample_increments,
    _window_drive,
    row_blocks,
)


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
    assert np.array_equal(a.state_norms_sq, b.state_norms_sq)
    assert np.array_equal(a.increment_norms_sq, b.increment_norms_sq)


def test_increments_match_state_differences():
    # the cached norms, measured block by block, equal one-shot norms of the
    # states and of their differences bit for bit
    model = generate_drift(d=3, r=1, s=2, seed=1)
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    obs = simulate_path(model, regime, PathConfig(delta_n=0.1, n_obs=25000, seed=4))
    assert len(row_blocks(obs.n_obs, obs.d)) == 3
    x = obs.states
    inc = np.diff(x, axis=0)
    assert np.array_equal(obs.state_norms_sq, np.einsum("ij,ij->i", x, x))
    assert np.array_equal(obs.increment_norms_sq, np.einsum("ij,ij->i", inc, inc))
    for cached in (obs.state_norms_sq, obs.increment_norms_sq):
        with pytest.raises(ValueError):
            cached[0] = 1.0


def _window_cov(step, sigma, dt, steps):
    """Covariance of the Brownian sum over `steps` Euler steps, summed step
    by step: sum_j dt M^j sigma sigma^T (M^j)^T."""
    cov = np.zeros_like(step)
    power = np.eye(len(step))
    for _ in range(steps):
        cov += dt * (power @ sigma) @ (power @ sigma).T
        power = step @ power
    return cov


def _stepwise_euler(model, regime, cfg, x0=None, fine_normals=False):
    """Reference: one Euler step per substep; returns the observed states.

    The burn-in is rounded up to whole windows of m = substeps steps.  Jumps
    enter at their own step, on the draws `_jump_draws` makes.  The
    Brownian part of each window enters at the window's end, as
    simulate_path draws it: d normals times a factor R with R^T R equal to
    the stepwise sum of its covariance.  With fine_normals it enters step by
    step instead, from `_sample_increments`' d normals per step, so the two
    agree in law but not in stream.  Without sigma the two are the same.
    """
    rng = np.random.default_rng(cfg.seed)
    d, m = model.d, cfg.substeps
    dt = cfg.delta_n / m
    step = np.eye(d) - model.a0 * dt
    burn_time = cfg.burn_in_time
    if burn_time is None:
        burn_time = 10.0 / model.stability_margin
    n_burn = -(-int(round(burn_time / dt)) // m)  # whole windows
    brownian = regime.sigma is not None and not fine_normals

    def windows(x, n_win):
        gauss = np.zeros((n_win, d))
        if brownian:
            # the same QR call simulate_path makes, on the stepwise stack
            power, blocks = np.eye(d), []
            for _ in range(m):
                blocks.insert(0, np.sqrt(dt) * (power @ regime.sigma).T)
                power = step @ power
            factor = np.linalg.qr(np.concatenate(blocks), mode="r")
            for w in range(n_win):
                gauss[w] = rng.standard_normal(d) @ factor
        noise = replace(regime, sigma=None) if brownian else regime
        dz = iter(_sample_increments(noise, dt, n_win * m, d, rng))
        ends = []
        for w in range(n_win):
            for _ in range(m):
                x = x - (model.a0 @ x) * dt + next(dz)
            x = x + gauss[w]
            ends.append(x)
        return ends

    x = np.zeros(d) if x0 is None else np.array(x0, dtype=float)
    if n_burn > 0:
        x = windows(x, n_burn)[-1]
    return np.array([x] + windows(x, cfg.n_obs))


REGIMES_D4 = [
    LevyRegime(tag="continuous", sigma=np.eye(4)),
    LevyRegime(tag="bounded", sigma=0.5 * np.eye(4), jump_rate=1.0, jump_scale=0.4, z0=0.8),
    LevyRegime(tag="subweibull", sigma=0.5 * np.eye(4), jump_rate=1.0, jump_scale=0.5, alpha=1.0),
    LevyRegime(tag="polymoment", sigma=0.5 * np.eye(4), jump_rate=1.0, jump_scale=0.5, p=4.0),
]
# pure-jump variants: no normals, so these paths are the stepwise Euler
# path on `_sample_increments`' own draws
REGIMES_D4 += [replace(regime, sigma=None) for regime in REGIMES_D4[1:]]


def _regime_id(regime):
    return regime.tag if regime.sigma is not None else f"{regime.tag}-nosigma"


@pytest.mark.parametrize("substeps", [1, 3, 10])
@pytest.mark.parametrize("regime", REGIMES_D4, ids=_regime_id)
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


# several scan blocks, and not a multiple of the block size
LONG_N_OBS = 701
assert LONG_N_OBS % (math.isqrt(LONG_N_OBS - 1) + 1)
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


class _UnitNormals:
    """Generator stand-in whose normals are all e_i: each drive row is then
    row i of its window's factor."""

    def __init__(self, i):
        self.i = i

    def standard_normal(self, size=None, out=None):
        out = np.zeros(size) if out is None else out
        out[...] = 0.0
        out[..., self.i] = 1.0
        return out


RANK_ONE = np.outer([1.0, -0.5, 0.25, 2.0], [0.5, 1.0, 0.0, -1.0])


@pytest.mark.parametrize("m,n_fine", [(1, 5), (3, 9), (10, 30)])
@pytest.mark.parametrize("sigma", [np.eye(4), 0.5 * np.eye(4), RANK_ONE], ids=["I", "half-I", "rank1"])
def test_window_factor_matches_stepwise_covariance(sigma, m, n_fine):
    model = generate_drift(d=4, r=1, s=3, seed=5)
    dt = 0.1 / m
    powers, factor = _propagators(model.a0, sigma, dt, m)
    continuous = LevyRegime(tag="continuous")
    n_win = n_fine // m
    rows = np.full((4, n_win, 4), np.nan)
    for i in range(4):
        _window_drive(continuous, dt, powers, factor, _UnitNormals(i), rows[i])
    factor = rows[:, -1]
    cov = _window_cov(np.eye(4) - model.a0 * dt, sigma, dt, m)
    assert np.linalg.norm(factor.T @ factor - cov) <= 1e-12 * np.linalg.norm(cov)


@pytest.mark.parametrize(
    "d, sigma_scale, delta_n, n_win",
    [(20, 1.0, 0.05, 40000), (60, 0.5, 0.1, 2500)],
    ids=["continuous-d20", "polymoment-d60"],
)
def test_window_drive_is_one_whole_draw_times_the_factor(d, sigma_scale, delta_n, n_win):
    # the drive draws and multiplies its normals block by block (7 and 2
    # blocks here); the rows must equal one whole draw times the factor, bit
    # for bit, or the paths of the benchmark workloads would change
    model = generate_drift(d=d, r=2, s=d, seed=3)
    dt = delta_n / 10
    powers, factor = _propagators(model.a0, sigma_scale * np.eye(d), dt, 10)
    rows = np.full((n_win, d), np.nan)
    _window_drive(LevyRegime(tag="continuous"), dt, powers, factor, np.random.default_rng(9), rows)
    whole = np.random.default_rng(9).standard_normal((n_win, d)) @ factor
    assert np.array_equal(rows, whole)


@pytest.mark.parametrize(
    "n, rows", [(0, 5), (1, 5), (5, 5), (6, 5), (5, 4), (11, 5), (40000, 6553), (2500, 2184)]
)
def test_row_blocks_cover_the_rows_in_even_blocks(n, rows):
    blocks = row_blocks(n, 2, nbytes=16 * rows)  # `rows` rows of width 2 per block
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert [a for a, _ in blocks[1:]] == [b for _, b in blocks[:-1]]
    sizes = [b - a for a, b in blocks]
    assert sizes[0] == max(sizes) <= rows
    assert len(blocks) == max(-(-n // rows), 1)
    assert len(blocks) == 1 or min(sizes) >= rows // 2


@pytest.mark.parametrize("regime", REGIMES_D4[:2], ids=_regime_id)
def test_window_law_monte_carlo(regime):
    """x_1 from simulate_path and from fine-step Euler agree in mean and
    covariance; the burn-in of 2 steps is rounded up to one window of 4."""
    model = generate_drift(d=4, r=1, s=3, seed=5)
    cfg = PathConfig(delta_n=0.4, n_obs=1, substeps=4, burn_in_time=0.2, seed=0)
    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    reps = 3000
    fast = np.array([simulate_path(model, regime, replace(cfg, seed=k), x0=x0).states[1]
                     for k in range(reps)])
    ref = np.array([_stepwise_euler(model, regime, replace(cfg, seed=reps + k), x0=x0,
                                    fine_normals=True)[1] for k in range(reps)])
    for sample in (fast, ref):
        assert np.abs(sample - sample.mean(axis=0)).max() > 0.1  # not degenerate

    def mean_and_se(values):
        return values.mean(axis=0), values.std(axis=0) / np.sqrt(len(values))

    for stat in (lambda x: x, lambda x: np.einsum("ki,kj->kij", x - x.mean(0), x - x.mean(0))):
        (mu_a, se_a), (mu_b, se_b) = mean_and_se(stat(fast)), mean_and_se(stat(ref))
        assert np.all(np.abs(mu_a - mu_b) <= 5.0 * np.hypot(se_a, se_b))


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


def test_continuous_d20_path_never_holds_the_fine_increments(peak_bytes):
    model = generate_drift(d=20, r=2, s=20, seed=3)
    regime = LevyRegime(tag="continuous", sigma=np.eye(20))
    cfg = PathConfig(delta_n=0.05, n_obs=40000, substeps=10, seed=7)
    fine_bytes = cfg.n_obs * cfg.substeps * model.d * 8  # 61 MiB
    peak, _ = peak_bytes(simulate_path, model, regime, cfg)
    assert peak < fine_bytes


def test_scan_buffer_is_a_map_freed_with_the_path():
    model = generate_drift(d=3, r=1, s=2, seed=0)
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    obs = simulate_path(model, regime, PathConfig(delta_n=0.1, n_obs=50, seed=1))
    root = obs.states
    while isinstance(root, np.ndarray):
        root = root.base
    assert isinstance(root.obj, mmap.mmap)
    ref = weakref.ref(root)
    del obs, root
    assert ref() is None  # the map is closed: its pages went back to the OS


G = OVERFLOW_GUARD


@pytest.mark.parametrize(
    "value",
    [np.nextafter(G, 0), np.nextafter(-G, 0), G, -G, np.nan, np.inf, -np.inf],
    ids=["inside+G", "inside-G", "+G", "-G", "nan", "+inf", "-inf"],
)
@pytest.mark.parametrize("row", [0, 3])
@pytest.mark.parametrize("later_inf", [False, True])
def test_first_bad_row_matches_row_scan(value, row, later_inf):
    states = np.zeros((6, 3))
    states[row, 1] = value
    if later_inf:
        states[5, 2] = np.inf
    bad = ~np.all(np.abs(states) < G, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _first_bad_row(states) == (int(np.argmax(bad)) if bad.any() else None)


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
    # dt = 2.5 makes each step multiply by -1.5; 2001 steps, rounded up to
    # 1001 windows of 2, overflow to inf
    cfg = PathConfig(delta_n=5.0, n_obs=10, substeps=2, burn_in_time=5002.5, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationBlowupError, match="burn-in"):
            simulate_path(model, regime, cfg)


def _count_scans(monkeypatch) -> list:
    """Record every call of simulate's `_first_bad_row` in the returned list."""
    calls = []

    def counted(states):
        calls.append(len(states))
        return _first_bad_row(states)

    monkeypatch.setattr(simulate, "_first_bad_row", counted)
    return calls


def test_healthy_path_skips_the_row_scan(monkeypatch):
    calls = _count_scans(monkeypatch)
    model = generate_drift(d=4, r=1, s=4, seed=2, spectral_floor=0.5)
    for regime, burn_in in [
        (LevyRegime(tag="continuous", sigma=np.eye(4)), None),
        (LevyRegime(tag="polymoment", sigma=0.5 * np.eye(4), jump_rate=1.0, jump_scale=0.5), 0.0),
    ]:
        cfg = PathConfig(delta_n=0.1, n_obs=500, burn_in_time=burn_in, seed=4)
        simulate_path(model, regime, cfg)
    assert calls == []


def test_row_norm_at_the_guard_with_entries_inside_raises_nothing(monkeypatch):
    calls = _count_scans(monkeypatch)
    model = generate_drift(4, 0, 0, seed=3, spectral_floor=0.5)  # a0 = I / 2
    regime = LevyRegime(tag="continuous", sigma=np.eye(4))
    cfg = PathConfig(delta_n=0.1, n_obs=20, burn_in_time=0.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs = simulate_path(model, regime, cfg, x0=np.full(4, 0.9e12))
    # row 0 has norm 1.8e12, past the guard, and max |x| 0.9e12, inside it
    assert obs.state_norms_sq[0] >= OVERFLOW_GUARD**2
    assert np.max(np.abs(obs.states)) < OVERFLOW_GUARD
    assert calls  # the norms sent the path to the exact scan, which passed it


def test_empirical_trunc_moment():
    states = np.array([[0.0], [1.0], [3.0], [0.0]])  # increments 1, 2, -3
    obs = ObservationSet(states, delta_n=0.5)
    assert empirical_trunc_moment(obs, eta=100.0) == 0.0
    assert empirical_trunc_moment(obs, eta=1e-12) == pytest.approx((1 + 4 + 9) / 3)
    assert empirical_trunc_moment(obs, eta=1.5) == pytest.approx((4 + 9) / 3)
    with pytest.raises(ValueError):
        empirical_trunc_moment(obs, eta=0.0)


def test_observation_set_states_are_a_read_only_view():
    states = np.zeros((5, 2))
    obs = ObservationSet(states, 0.1)
    assert np.shares_memory(obs.states, states)
    with pytest.raises(ValueError):
        obs.states[1, 0] = 1.0
    states[1, 0] = 1.0  # the caller's array keeps its own flags
    assert obs.states[1, 0] == 1.0


@pytest.mark.parametrize(
    "states",
    [
        np.arange(3.0),
        np.ones((1, 2)),
        np.array([[0.0, 1.0], [np.nan, 0.0]]),
        np.vstack([np.zeros((40000, 2)), [[0.0, np.inf]]]),  # in the last of 3 blocks
    ],
    ids=["1-d", "one-row", "nan", "inf-in-last-block"],
)
def test_observation_set_rejects_malformed_states(states):
    with pytest.raises(ValueError):
        ObservationSet(states, delta_n=0.1)


@pytest.mark.parametrize("delta_n", [float("nan"), 0.0, -0.1, float("inf")])
def test_observation_set_rejects_bad_mesh(delta_n):
    with pytest.raises(ValueError, match="delta_n must be finite and positive"):
        ObservationSet(np.zeros((3, 2)), delta_n=delta_n)


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


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", ["delta_n", "burn_in_time"])
def test_path_config_rejects_nonfinite_settings(key, value):
    with pytest.raises(ValueError, match=key):
        PathConfig(**{"delta_n": 0.1, "n_obs": 10, key: value})


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)
    assert 0 <= derive_seed(123, "x") < 2**63
