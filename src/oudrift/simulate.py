"""Background driving Levy process samplers and OU path simulation.

Four noise regimes are supported, distinguished by jump tails:

  continuous  - Brownian motion only (no jumps)
  bounded     - compound Poisson with jump norms capped at z0
  subweibull  - stretched-exponential jump tails with exponent alpha
  polymoment  - Pareto jump tails; only a p-th moment exists

Jumps are isotropic (uniform random direction), hence centered, so the
driving noise is a square-integrable martingale in every regime.  Paths follow
the Euler scheme x <- M x + dz, M = I - A0 dt, on a fine grid of `substeps`
steps per observation; the exact transition has no closed form once jumps are
present.  Only the observation mesh is recorded, so the m = substeps fine
steps between two observations are applied at once:

    x_{k+1} = M^m x_k + u_k,    u_k = sum_j M^(m-1-j) dz_{k,j}.

The fine normals are never drawn.  The Gaussian part of u_k is exactly
N(0, Q_m), Q_m = dt sum_{j<m} M^j sigma sigma^T (M^j)^T, so `_window_drive`
draws it as d normals per window times one (d, d) factor R per path with
R^T R = Q_m, then adds every compound-Poisson jump propagated from its own
fine step.  It writes these drives straight into the rows of the scan
buffer, and `_scan` then runs the recursion over the burn-in and observed
windows together, in place, as a two-level blocked scan over blocks of about
sqrt(n) windows (Blelloch 1990): block sums from zero, a carry loop over
blocks, a batched fill.

Law contract: a path has the law of stepwise Euler iteration.  The burn-in
is whole observation windows: its duration in fine steps, rounded up to a
multiple of `substeps`.  Over the burn-in windows and then over the
observed windows it draws d normals per window, then the jumps as
`_jump_draws` draws them.  Without a Brownian part it draws no normals, and
the path is the stepwise Euler path on `_sample_increments`' draws up to
floating-point rounding.
"""

from __future__ import annotations

import hashlib
import math
import mmap
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .models import DriftModel

__all__ = [
    "REGIME_TAGS",
    "LevyRegime",
    "PathConfig",
    "ObservationSet",
    "SimulationBlowupError",
    "simulate_path",
    "empirical_trunc_moment",
    "derive_seed",
    "total_noise_cov",
]

REGIME_TAGS = ("continuous", "bounded", "subweibull", "polymoment")

OVERFLOW_GUARD = 1e12
# Bytes per block of the block-wise passes over a path (`ObservationSet`'s
# norm pass, `build_context`): small next to a path, so a pass
# makes no path-sized temporary, and large enough to keep Python's
# per-block cost small.
_BLOCK_BYTES = 1 << 18
# Bytes per block of `_window_drive`'s normals.  Blocks of at least half of
# this multiply bit for bit like one whole matmul on the OpenBLAS the tests
# pin (tests/test_simulate.py); small ones fall to its small-matrix kernel,
# which rounds differently.
_DRIVE_BLOCK_BYTES = 1 << 20


class SimulationBlowupError(RuntimeError):
    """Raised when a simulated state exceeds the overflow guard."""


@dataclass(frozen=True)
class LevyRegime:
    """Tagged description of the driving noise.

    sigma : (d, d) Brownian factor; the Gaussian part of an increment over dt
        is sigma @ g * sqrt(dt).  May be zero for pure-jump noise.
    jump_rate : compound-Poisson intensity per unit time (0 disables jumps).
    jump_scale : radial scale of the jump-size law.
    z0 : hard bound on jump norms (bounded regime only).
    alpha : stretched-exponential tail exponent (subweibull regime only).
    p : moment order, > 2 (polymoment regime only); jump radii are Pareto
        with tail index p + 0.5 so the p-th moment exists but is heavy.
    """

    tag: str
    sigma: Optional[np.ndarray] = None
    jump_rate: float = 0.0
    jump_scale: float = 1.0
    z0: float = 1.0
    alpha: float = 1.0
    p: float = 4.0

    def __post_init__(self):
        if self.tag not in REGIME_TAGS:
            raise ValueError(f"unknown regime tag {self.tag!r}; expected one of {REGIME_TAGS}")
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
                raise ValueError("sigma must be a square matrix")
            if not np.all(np.isfinite(sigma)):
                raise ValueError("sigma has non-finite entries")
            object.__setattr__(self, "sigma", sigma)
        # `0 < x < inf` also rejects NaN, which passes every `<= 0` check
        if not 0 <= self.jump_rate < math.inf:
            raise ValueError("jump_rate must be finite and nonnegative")
        if not 0 < self.jump_scale < math.inf:
            raise ValueError("jump_scale must be finite and positive")
        if self.tag == "bounded" and not 0 < self.z0 < math.inf:
            raise ValueError("z0 must be finite and positive")
        if self.tag == "subweibull" and not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        if self.tag == "polymoment" and not 2 < self.p < math.inf:
            raise ValueError("p must be finite and exceed 2")
        if self.tag == "continuous" and self.jump_rate != 0.0:
            raise ValueError("continuous regime cannot carry jumps")


@dataclass(frozen=True)
class PathConfig:
    """Observation grid: n_obs increments of size delta_n, Euler-substepped.

    burn_in_time None means 10 / stability_margin, long enough for the
    mean-reverting dynamics to forget the zero start.
    """

    delta_n: float
    n_obs: int
    substeps: int = 10
    burn_in_time: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.delta_n < math.inf:
            raise ValueError("delta_n must be finite and positive")
        if self.n_obs < 1:
            raise ValueError("n_obs must be >= 1")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.burn_in_time is not None and not 0 <= self.burn_in_time < math.inf:
            raise ValueError("burn_in_time must be finite and nonnegative")

    @property
    def horizon(self) -> float:
        return self.n_obs * self.delta_n


@dataclass(frozen=True)
class ObservationSet:
    """States X_{t_0..t_n} on the mesh delta_n, and their squared row norms.

    The states are stored as a read-only view (no copy; the caller's array
    keeps its own flags, and writing to it leaves the norms stale).  One
    pass over the states, block by block (`row_blocks`), checks that they
    are finite and measures ||X_{t_k}||^2 (`state_norms_sq`) and
    ||X_{t_k} - X_{t_(k-1)}||^2 (`increment_norms_sq`), both cached
    read-only; no path-sized temporary is made.  Every reader of a row norm
    reads these, never the states.
    """

    states: np.ndarray
    delta_n: float
    state_norms_sq: np.ndarray = field(init=False, repr=False, compare=False)
    increment_norms_sq: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.delta_n < math.inf:
            raise ValueError("delta_n must be finite and positive")
        x = np.asarray(self.states, dtype=float)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ValueError("states must be (n+1, d) with n >= 1")
        n, d = x.shape[0] - 1, x.shape[1]
        state_sq = np.empty(n + 1)
        inc_sq = np.empty(n)
        blocks = row_blocks(n, d)
        scratch = np.empty((blocks[0][1], d))
        for start, stop in blocks:  # block rows start..stop and its increments
            rows = x[start : stop + 1]
            if not np.isfinite(rows).all():
                raise ValueError("states contain non-finite entries")
            np.einsum("ij,ij->i", rows, rows, out=state_sq[start : stop + 1])
            inc = np.subtract(rows[1:], rows[:-1], out=scratch[: stop - start])
            np.einsum("ij,ij->i", inc, inc, out=inc_sq[start:stop])
        x = x.view()
        x.flags.writeable = False
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "delta_n", float(self.delta_n))
        object.__setattr__(self, "state_norms_sq", _read_only(state_sq))
        object.__setattr__(self, "increment_norms_sq", _read_only(inc_sq))

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def n_obs(self) -> int:
        return self.states.shape[0] - 1


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def row_blocks(n: int, d: int, nbytes: int = _BLOCK_BYTES) -> list[tuple[int, int]]:
    """Bounds (start, stop) of the fewest blocks of rows of d float64 entries,
    at most nbytes each, that cover n rows, as even as possible: the first
    block is the largest, and each holds at least half of the rows that fit
    in nbytes (rounded down) unless it is the only one."""
    rows = max(1, nbytes // (8 * max(d, 1)))
    k = max(-(-n // rows), 1)
    bounds = [-(-n * i // k) for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _jump_radii(regime: LevyRegime, size: int, rng: np.random.Generator) -> np.ndarray:
    if regime.tag == "bounded":
        return np.minimum(regime.jump_scale * rng.uniform(size=size), regime.z0)
    if regime.tag == "subweibull":
        w = rng.standard_exponential(size=size)
        return regime.jump_scale * w ** (1.0 / regime.alpha)
    if regime.tag == "polymoment":
        return regime.jump_scale * (1.0 + rng.pareto(regime.p + 0.5, size=size))
    raise ValueError(f"regime {regime.tag!r} has no jump law")


def _jump_second_moment(regime: LevyRegime) -> float:
    """E[R^2] for the jump radius law of the regime."""
    scale = regime.jump_scale
    if regime.tag == "bounded":
        c = min(regime.z0 / scale, 1.0)
        return scale**2 * (c**3 / 3.0) + regime.z0**2 * (1.0 - c)
    if regime.tag == "subweibull":
        return scale**2 * math.gamma(1.0 + 2.0 / regime.alpha)
    if regime.tag == "polymoment":
        a = regime.p + 0.5
        return scale**2 * a / (a - 2.0)
    return 0.0


def total_noise_cov(regime: LevyRegime, d: int) -> np.ndarray:
    """Instantaneous covariance of the driving noise: Brownian part plus
    isotropic compound-Poisson part.  Determines the stationary covariance
    through the Lyapunov balance for every square-integrable regime."""
    cov = np.zeros((d, d))
    if regime.sigma is not None:
        cov += regime.sigma @ regime.sigma.T
    if regime.tag != "continuous" and regime.jump_rate > 0:
        cov += regime.jump_rate * _jump_second_moment(regime) / d * np.eye(d)
    return cov


def _jump_draws(
    regime: LevyRegime, dt: float, n: int, d: int, rng: np.random.Generator
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Compound-Poisson part of n windows of length dt: per-window counts and
    the (counts.sum(), d) jumps in window order; None when no jump occurs.

    Draws Poisson counts, then directions, then radii.
    """
    if regime.tag == "continuous" or regime.jump_rate <= 0:
        return None
    counts = rng.poisson(regime.jump_rate * dt, size=n)
    total = int(counts.sum())
    if total == 0:
        return None
    dirs = rng.standard_normal((total, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return counts, dirs * _jump_radii(regime, total, rng)[:, None]


def _sample_increments(
    regime: LevyRegime, dt: float, n: int, d: int, rng: np.random.Generator
) -> np.ndarray:
    """n driving-noise increments over windows of length dt, shape (n, d).

    The noise of n Euler steps drawn one step at a time: all normals of the
    Brownian part (row-major, none when sigma is None or zero), then the
    jumps (`_jump_draws`).  `simulate_path` draws the jumps the same way but
    each window's Brownian sum from its law (module docstring).
    """
    if regime.sigma is not None and np.any(regime.sigma):
        out = np.sqrt(dt) * rng.standard_normal((n, d)) @ regime.sigma.T
    else:
        out = np.zeros((n, d))
    jumps = _jump_draws(regime, dt, n, d, rng)
    if jumps is not None:
        counts, sizes = jumps
        np.add.at(out, np.repeat(np.arange(n), counts), sizes)
    return out


def _propagators(
    a0: np.ndarray, sigma: Optional[np.ndarray], dt: float, m: int
) -> tuple[list, Optional[np.ndarray]]:
    """Powers M^0..M^m of M = I - A0 dt, and the window's Gaussian factor R.

    R is the (d, d) QR factor of the (m d, d) stack with blocks
    sqrt(dt) (M^(m-1-j) sigma)^T: a window's m d normals, as one row, times
    the stack is sum_j M^(m-1-j) sqrt(dt) sigma g_j, whose covariance is
    Q_m = stack^T stack = R^T R (even for a rank-deficient sigma, unlike
    Cholesky).  None without a Brownian part.
    """
    d = a0.shape[0]
    step = np.eye(d) - a0 * dt
    powers = [np.eye(d)]
    for _ in range(m):
        powers.append(step @ powers[-1])
    if sigma is None or not np.any(sigma):
        return powers, None
    stack = np.sqrt(dt) * np.concatenate([(pw @ sigma).T for pw in powers[m - 1::-1]])
    return powers, np.linalg.qr(stack, mode="r")


def _gaussian_drive(factor: np.ndarray, rng: np.random.Generator, rows: np.ndarray) -> None:
    """Fill `rows` with (len(rows), d) normals times `factor`: the normals of
    one whole draw, drawn block by block into one scratch of at most
    _DRIVE_BLOCK_BYTES (freed on return), each block multiplied straight
    into its rows."""
    blocks = row_blocks(*rows.shape, _DRIVE_BLOCK_BYTES)
    normals = np.empty((blocks[0][1], rows.shape[1]))
    for start, stop in blocks:
        np.matmul(rng.standard_normal(out=normals[: stop - start]), factor, out=rows[start:stop])


def _window_drive(
    regime: LevyRegime,
    dt: float,
    powers: list,
    factor: Optional[np.ndarray],
    rng: np.random.Generator,
    rows: np.ndarray,
) -> None:
    """Fill `rows`, shape (n_win, d), with the aggregated drive of n_win
    windows of m = len(powers) - 1 Euler steps.

    Row k is sum_j M^(m-1-j) dz_{k,j}: d normals times the window factor,
    written into the row, then every jump of the window's m steps propagated
    from its own step, added in place.
    """
    m = len(powers) - 1
    d = powers[0].shape[0]
    n_win = len(rows)
    if factor is None:
        rows.fill(0.0)
    else:
        _gaussian_drive(factor, rng, rows)
    jumps = _jump_draws(regime, dt, n_win * m, d, rng)
    if jumps is not None:
        counts, sizes = jumps
        steps = np.flatnonzero(counts)
        per_step = np.add.reduceat(sizes, np.cumsum(counts[steps]) - counts[steps])
        window, offset = np.divmod(steps, m)
        for j in np.unique(offset):
            hit = offset == j
            rows[window[hit]] += per_step[hit] @ powers[m - 1 - j].T


def _block_size(n: int) -> int:
    """Rows per block of `_scan` over n rows: ceil(sqrt(n))."""
    return math.isqrt(max(n - 1, 0)) + 1


def _scan_buffer(n: int, d: int) -> np.ndarray:
    """Zeroed (nb b + 1, d) buffer for `_scan` over n rows in nb blocks of
    b = `_block_size(n)`; rows 1..n take the drives, the rest pad the last
    block.

    The buffer is an anonymous memory map, zero-filled by the OS and
    unmapped when the last view of it (the path's states) is dropped.  Taken
    from the malloc heap instead, a dropped path leaves a path-sized hole
    there that later small allocations split, so the heap grows by a path
    for the next one and a sweep's peak RSS steps up by a path.  The pages
    are faulted in when mapped (MAP_POPULATE, where the OS has it), which
    is about twice as fast as faulting them in one by one at first write.
    """
    b = _block_size(n)
    rows = -(-n // b) * b + 1
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, rows * d * 8, flags=flags), dtype=float).reshape(rows, d)


def _scan(x: np.ndarray, out: np.ndarray, n: int, power: np.ndarray) -> np.ndarray:
    """States x_0 = x, x_{k+1} = power x_k + drive_k, computed in place over
    `out` (from `_scan_buffer(n, d)`), whose rows 1..n hold the n drives;
    returns the (n + 1, d) view of the states.

    Two-level blocked scan over nb blocks of b = ceil(sqrt(n)) rows:
    1. every block's end state from a zero start, all blocks at once;
    2. the start of every block, carried block to block by power^b;
    3. every state, recomputed inside all blocks at once from those starts,
       in place over its drive row.
    About 3 sqrt(n) Python steps instead of n, in the one path-sized buffer.
    Overflow is left to the caller's guard: states past a blow-up hold inf
    or nan.
    """
    b, d = _block_size(n), len(x)
    nb = (len(out) - 1) // b
    out[0] = x
    u = out[1:].reshape(nb, b, d)
    pt = power.T

    ends = np.zeros((nb, d))
    for t in range(b):
        ends = ends @ pt + u[:, t]

    carry = np.linalg.matrix_power(power, b)
    starts = np.empty((nb, d))
    if nb:
        starts[0] = x
    for i in range(1, nb):
        starts[i] = carry @ starts[i - 1] + ends[i - 1]

    prev = starts
    for t in range(b):
        u[:, t] += prev @ pt
        prev = u[:, t]
    return out[: n + 1]


def _first_bad_row(states: np.ndarray) -> Optional[int]:
    """Index of the first row with an entry outside the open overflow guard
    (-OVERFLOW_GUARD, OVERFLOW_GUARD), NaN included; None when there is none."""
    bad = ~np.all(np.abs(states) < OVERFLOW_GUARD, axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def simulate_path(
    model: DriftModel,
    regime: LevyRegime,
    cfg: PathConfig,
    x0: Optional[np.ndarray] = None,
) -> ObservationSet:
    """Euler path of dX = -A0 X dt + dZ, recorded on the observation mesh.

    dt = delta_n / substeps.  The substeps between two observations are
    applied as one aggregated step, whose drive `_window_drive` draws from
    the window's law into one scan buffer, and the states follow by one
    blocked scan over the burn-in and observed windows in that buffer; the
    returned states are a view of it, so a path costs one path-sized array
    (mapped from the OS, `_scan_buffer`) plus the burn-in rows, and the
    drive's normals one block.  The path has the law of the stepwise Euler
    path (module docstring: law contract).  The start is stationarized by
    running the same dynamics from zero (or from `x0` when given; pass
    burn_in_time=0 to force an exact injected start) for the burn-in
    duration, rounded up to whole observation windows.  Raises
    SimulationBlowupError when the state leaves the overflow guard by the
    end of burn-in or at an observation, naming the first such observation
    time.  The returned ObservationSet's squared row norms decide that:
    ||x||^2 < OVERFLOW_GUARD^2 puts every entry of x inside the guard, so
    only a path with a row at or past it (or a non-finite one) is scanned
    entry by entry (`_first_bad_row`).  Deterministic given cfg.seed.
    """
    d = model.d
    if regime.sigma is not None and regime.sigma.shape[0] != d:
        raise ValueError(f"regime dimension {regime.sigma.shape[0]} != model dimension {d}")
    rng = np.random.default_rng(cfg.seed)
    m = cfg.substeps
    dt = cfg.delta_n / m

    burn_time = cfg.burn_in_time
    if burn_time is None:
        burn_time = 10.0 / model.stability_margin
    n_burn = -(-int(round(burn_time / dt)) // m)  # whole windows

    x = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")

    n = n_burn + cfg.n_obs
    with np.errstate(over="ignore", invalid="ignore"):
        powers, factor = _propagators(model.a0, regime.sigma, dt, m)
        buf = _scan_buffer(n, d)
        _window_drive(regime, dt, powers, factor, rng, buf[1 : n_burn + 1])
        _window_drive(regime, dt, powers, factor, rng, buf[n_burn + 1 : n + 1])
        states = _scan(x, buf, n, powers[m])[n_burn:]
        try:
            obs = ObservationSet(states, cfg.delta_n)
        except ValueError:  # a non-finite state
            obs = None
    if obs is not None and obs.state_norms_sq.max() < OVERFLOW_GUARD**2:
        return obs
    if n_burn > 0 and _first_bad_row(states[:1]) is not None:
        raise SimulationBlowupError(
            f"burn-in exceeded overflow guard (dt={dt:g}, "
            f"stability_margin={model.stability_margin:g})"
        )
    k = _first_bad_row(states[1:])
    if k is not None:
        raise SimulationBlowupError(
            f"state exceeded overflow guard at t={(k + 1) * cfg.delta_n:g} "
            f"(dt={dt:g}, stability_margin={model.stability_margin:g})"
        )
    return obs  # a non-finite row fails the scan, so obs is set here


def empirical_trunc_moment(obs: ObservationSet, eta: float) -> float:
    """(1/n) sum_k ||dX_k||^2 1{||dX_k|| > eta}: the squared increment norms
    above eta, averaged over all n increments.  Reads obs's cached norms."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    norms_sq = obs.increment_norms_sq
    return float(np.mean(norms_sq * (np.sqrt(norms_sq) > eta)))


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit seed from a base seed and arbitrary labels.

    Hash-based so that extending a sweep never reshuffles existing draws.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return (int(base) ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)
